//! Crash-safe sweep orchestration: the supervised runtime that runs the
//! full experiment matrix (system × style × seed × fault profile) under
//! panic isolation, deterministic deadlines, capped retry, and a
//! write-ahead journal so an interrupted sweep resumes bit-identically.
//!
//! The paper's experiment is itself a matrix — participants × systems ×
//! prompting styles — and a long sweep over it must tolerate partial
//! failure without discarding completed cells. The harness supervises
//! each cell:
//!
//! * **Panic isolation** — every attempt runs inside `catch_unwind`.
//!   Injected crashes carry an [`InjectedCrash`] payload (raised with
//!   `panic_any`, never the `panic!` macro, which repolint forbids);
//!   any *other* payload is a harness bug and is re-raised with
//!   `resume_unwind` so real defects are never swallowed.
//! * **Deterministic deadlines** — time is a virtual clock counted in
//!   *steps* (one prompt = one step); repolint forbids wall-clock reads
//!   in seeded modules, and the deadline must replay identically on
//!   resume. A wedged task burns its whole step budget.
//! * **Retry with capped exponential backoff** — a failed attempt waits
//!   `min(base << attempt, cap)` virtual ticks before the next try.
//! * **Circuit breaker + quarantine** — a cell that exhausts its retry
//!   budget is quarantined; once a task *class* (system × profile)
//!   accumulates `breaker_threshold` quarantines, remaining cells of
//!   that class are skipped outright. Coverage accounting (attempted /
//!   completed / quarantined / skipped) always sums to the full matrix,
//!   so a degraded sweep is an honest partial result.
//! * **Write-ahead journal** — every finished cell is appended to a
//!   JSONL journal *before* the sweep moves on. [`parse_journal`]
//!   replays a journal prefix (dropping a truncated or corrupt trailing
//!   record) and [`Sweep::run_from`] executes only the remainder; the
//!   final [`SweepReport`] is byte-identical to an uninterrupted run.
//!
//! Determinism is load-bearing everywhere: per-cell RNG seeds are
//! derived by hashing the cell key (never by sharing a stream across
//! cells), so executing cells 0..k, crashing, and re-running k..n
//! cannot perturb any cell's outcome.

use crate::fault::{
    FaultId, FaultInjector, FaultKind, FaultPlan, FaultProfile, FaultSite, ResilienceReport,
};
use crate::llm::{CodeArtifact, DefectKind};
use crate::paper::{PaperSpec, TargetSystem};
use crate::prompt::PromptStyle;
use crate::session::ReproductionSession;
use crate::student::Participant;
use crate::validate::StaticGate;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Journal format version; bumped on any incompatible layout change.
/// Version 2 added the `cache` scheme identifier to the header.
pub const JOURNAL_VERSION: u32 = 2;

// Distinct salts keep the three per-cell RNG streams (session, session
// faults, harness faults) independent even though they hash the same
// cell key.
const SALT_SESSION: u64 = 0x5e55_1011_0000_0001;
const SALT_FAULTS: u64 = 0xfa17_0a75_0000_0002;
const SALT_HARNESS: u64 = 0x4a52_4e53_0000_0003;
pub(crate) const SALT_WORKER: u64 = 0x3090_4b32_0000_0004;
pub(crate) const SALT_FABRIC: u64 = 0xfab2_1c5c_0000_0006;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The seed for one of a cell's RNG streams. Pure function of the cell
/// key, the attempt number and the stream salt — no state crosses
/// cells, which is what makes journal replay sound.
pub(crate) fn derive_seed(cell: CellId, attempt: u32, salt: u64) -> u64 {
    splitmix64(
        fnv1a64(cell.key().as_bytes())
            ^ cell.seed.rotate_left(17)
            ^ salt
            ^ (u64::from(attempt) << 48),
    )
}

/// Topology scale of a cell's validation fabric: the paper's own
/// topologies, or a seeded k-ary fat-tree DCN that the DPV pipeline
/// verifies at hyper-scale via [`crate::dpv_scale`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TopoScale {
    /// The paper's own validation topologies (the default). Serialized
    /// away entirely (`skip_serializing_if`) so pre-scale journals and
    /// fingerprints replay byte-identically.
    #[default]
    Paper,
    /// A seeded k-ary fat-tree fabric; the cell additionally runs a
    /// partitioned data-plane verification over it and records the
    /// canonical verdict digest.
    FatTree {
        /// Fat-tree arity (even, `k/2` a power of two).
        k: u8,
    },
}

impl TopoScale {
    /// Whether this is the default paper scale (used by serde to keep
    /// old journal bytes stable).
    pub fn is_paper(&self) -> bool {
        matches!(self, TopoScale::Paper)
    }

    /// Stable short name: `paper`, or `ft8` for a k=8 fat-tree.
    pub fn name(&self) -> String {
        match self {
            TopoScale::Paper => "paper".to_string(),
            TopoScale::FatTree { k } => format!("ft{k}"),
        }
    }

    /// Parse a scale name (`paper`, `ft4`, `ft8`, ... — inverse of
    /// [`TopoScale::name`]). Fat-tree arities must be even with `k/2` a
    /// power of two (the prefix-exact addressing constraint), and small
    /// enough that a sweep cell's fabric build stays cheap.
    pub fn parse(s: &str) -> Option<TopoScale> {
        if s == "paper" {
            return Some(TopoScale::Paper);
        }
        let digits = s.strip_prefix("ft")?;
        let k: u8 = digits.parse().ok()?;
        // Canonical spelling only (no leading zeros): parse must be the
        // exact inverse of `name`, since journal keys embed the name.
        if k.to_string() == digits
            && (4..=32).contains(&k)
            && k.is_multiple_of(2)
            && (k / 2).is_power_of_two()
        {
            Some(TopoScale::FatTree { k })
        } else {
            None
        }
    }
}

/// One cell of the sweep matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CellId {
    /// Target system (fixes the participant preset).
    pub system: TargetSystem,
    /// Prompting style override for this cell.
    pub style: PromptStyle,
    /// Base seed of the cell (mixed into every derived stream).
    pub seed: u64,
    /// Fault profile the cell runs under.
    pub profile: FaultProfile,
    /// Validation-topology scale. Defaults to [`TopoScale::Paper`] and
    /// is omitted from serialized cells at that default, so journals
    /// written before the scale axis existed parse and re-serialize
    /// byte-identically.
    #[serde(default, skip_serializing_if = "TopoScale::is_paper")]
    pub scale: TopoScale,
}

impl CellId {
    /// Stable human-readable key, e.g. `NCFlow/pseudo/3/chaos`. Cells
    /// at a non-default scale append its name (`.../chaos/ft8`): paper
    /// cells keep their pre-scale keys, so every derived RNG stream —
    /// and therefore every journal byte — is unchanged for them.
    pub fn key(&self) -> String {
        let base = format!(
            "{}/{}/{}/{}",
            self.system.name(),
            self.style.name(),
            self.seed,
            self.profile.name()
        );
        match self.scale {
            TopoScale::Paper => base,
            scale => format!("{base}/{}", scale.name()),
        }
    }

    /// Circuit-breaker class: system × profile. Seeds and styles share
    /// a breaker because they fail for the same structural reasons.
    pub fn class(&self) -> String {
        format!("{}:{}", self.system.name(), self.profile.name())
    }

    /// The participant driving this cell: the paper's preset for the
    /// system, with the prompting style overridden by the cell.
    pub fn participant(&self) -> Participant {
        let mut p = Participant::preset(self.system);
        p.strategy.style = self.style;
        p.strategy.pseudocode_first = self.style == PromptStyle::ModularPseudocode;
        p
    }
}

/// Deterministic resource limits for one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskLimits {
    /// Step budget per attempt (one prompt = one step); a wedged task
    /// burns the whole budget.
    pub deadline_steps: u64,
    /// Attempts per cell before quarantine.
    pub max_attempts: u32,
    /// Base backoff after a failed attempt, in virtual ticks.
    pub backoff_base: u64,
    /// Backoff ceiling, in virtual ticks.
    pub backoff_cap: u64,
    /// Quarantines per class before the breaker trips.
    pub breaker_threshold: u32,
}

impl Default for TaskLimits {
    fn default() -> Self {
        TaskLimits {
            // Sessions run 10–200 prompts; 400 only reaps wedged tasks.
            deadline_steps: 400,
            max_attempts: 3,
            backoff_base: 8,
            backoff_cap: 64,
            breaker_threshold: 3,
        }
    }
}

impl TaskLimits {
    /// Backoff after failed attempt `attempt`: `min(base << attempt,
    /// cap)`, saturating at the cap once the shift would overflow.
    ///
    /// `checked_shl` is *not* enough here: it only returns `None` for
    /// shift amounts ≥ 64, while `8 << 61` silently wraps the *value*
    /// to zero — which collapsed the backoff to `min(0, cap) = 0` for
    /// large attempt counts instead of pinning it at the cap.
    pub fn backoff(&self, attempt: u32) -> u64 {
        if self.backoff_base == 0 {
            return 0;
        }
        if attempt > self.backoff_base.leading_zeros() {
            // The shifted value no longer fits in u64; it is certainly
            // past any cap ≤ u64::MAX.
            return self.backoff_cap;
        }
        (self.backoff_base << attempt).min(self.backoff_cap)
    }
}

/// The sweep matrix plus its limits. Expansion order is canonical
/// (systems → styles → seeds → profiles) and the config fingerprint is
/// embedded in the journal header, so a journal can never silently
/// replay into a different matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Systems to sweep.
    pub systems: Vec<TargetSystem>,
    /// Prompting styles to sweep.
    pub styles: Vec<PromptStyle>,
    /// Base seeds to sweep.
    pub seeds: Vec<u64>,
    /// Fault profiles to sweep.
    pub profiles: Vec<FaultProfile>,
    /// Topology scales to sweep. Defaults to `[Paper]` and is omitted
    /// from the serialized config at that default, so pre-scale
    /// fingerprints (and therefore journal headers) are unchanged.
    #[serde(default = "default_scales", skip_serializing_if = "scales_is_default")]
    pub scales: Vec<TopoScale>,
    /// Per-cell limits.
    pub limits: TaskLimits,
}

fn default_scales() -> Vec<TopoScale> {
    vec![TopoScale::Paper]
}

fn scales_is_default(scales: &[TopoScale]) -> bool {
    scales == [TopoScale::Paper]
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            systems: TargetSystem::EXPERIMENT.to_vec(),
            styles: vec![PromptStyle::ModularText, PromptStyle::ModularPseudocode],
            seeds: vec![0, 1, 2],
            profiles: vec![FaultProfile::None, FaultProfile::Heavy],
            scales: default_scales(),
            limits: TaskLimits::default(),
        }
    }
}

impl SweepConfig {
    /// The full matrix in canonical order. The scale axis is innermost,
    /// so a `[Paper]`-only config expands exactly as it did before the
    /// axis existed.
    pub fn expand(&self) -> Vec<CellId> {
        let mut cells = Vec::with_capacity(self.total_cells());
        for &system in &self.systems {
            for &style in &self.styles {
                for &seed in &self.seeds {
                    for &profile in &self.profiles {
                        for &scale in &self.scales {
                            cells.push(CellId { system, style, seed, profile, scale });
                        }
                    }
                }
            }
        }
        cells
    }

    /// Matrix size.
    pub fn total_cells(&self) -> usize {
        self.systems.len()
            * self.styles.len()
            * self.seeds.len()
            * self.profiles.len()
            * self.scales.len()
    }

    /// Content fingerprint of the config (matrix + limits); stored in
    /// the journal header and checked on resume.
    pub fn fingerprint(&self) -> String {
        let json = serde_json::to_string(self).unwrap_or_default();
        format!("{:016x}", fnv1a64(json.as_bytes()))
    }

    /// The names of the matrix and limit fields in canonical order: the
    /// `sweep` flags (`--systems`, ...) and the job-spec keys.
    pub const FIELDS: [&'static str; 8] =
        ["systems", "styles", "profiles", "scales", "seeds", "deadline", "attempts", "breaker"];

    /// Set the field `key` (one of [`SweepConfig::FIELDS`]) from its
    /// values, already split by the caller's list syntax: every entry
    /// of a list field, or the one value of a number. Empty entries are
    /// skipped. The error does not name the field; each front end
    /// prefixes it in its own spelling.
    pub fn set_field<'a>(
        &mut self,
        key: &str,
        values: impl IntoIterator<Item = &'a str>,
    ) -> Result<(), String> {
        let values: Vec<&str> = values.into_iter().filter(|v| !v.is_empty()).collect();
        match key {
            "systems" => self.systems = parse_entries(&values, TargetSystem::parse)?,
            "styles" => self.styles = parse_entries(&values, PromptStyle::parse)?,
            "profiles" => self.profiles = parse_entries(&values, FaultProfile::parse)?,
            "scales" => self.scales = parse_entries(&values, TopoScale::parse)?,
            "seeds" => {
                let n: u64 = parse_number(&values)?;
                if n == 0 {
                    return Err("must be at least 1".into());
                }
                self.seeds = (0..n).collect();
            }
            "deadline" => self.limits.deadline_steps = parse_number(&values)?,
            "attempts" => self.limits.max_attempts = parse_number(&values)?,
            "breaker" => self.limits.breaker_threshold = parse_number(&values)?,
            _ => return Err("unknown field".into()),
        }
        Ok(())
    }

    /// Every field of [`SweepConfig::FIELDS`] with its values as text,
    /// in that order: the inverse of [`SweepConfig::set_field`]. Seeds
    /// are written as their count.
    pub fn fields(&self) -> [(&'static str, Vec<String>); 8] {
        let [systems, styles, profiles, scales, seeds, deadline, attempts, breaker] = Self::FIELDS;
        let limits = &self.limits;
        [
            (systems, self.systems.iter().map(|s| s.name().to_ascii_lowercase()).collect()),
            (styles, self.styles.iter().map(|s| s.name().to_string()).collect()),
            (profiles, self.profiles.iter().map(|p| p.name().to_string()).collect()),
            (scales, self.scales.iter().map(TopoScale::name).collect()),
            (seeds, vec![self.seeds.len().to_string()]),
            (deadline, vec![limits.deadline_steps.to_string()]),
            (attempts, vec![limits.max_attempts.to_string()]),
            (breaker, vec![limits.breaker_threshold.to_string()]),
        ]
    }
}

fn parse_entries<T>(values: &[&str], parse: impl Fn(&str) -> Option<T>) -> Result<Vec<T>, String> {
    if values.is_empty() {
        return Err("empty list".into());
    }
    values.iter().map(|&v| parse(v).ok_or_else(|| format!("unknown value '{v}'"))).collect()
}

fn parse_number<T: std::str::FromStr>(values: &[&str]) -> Result<T, String> {
    let text = values.join(",");
    text.parse().map_err(|_| format!("cannot parse '{text}'"))
}

/// Panic payload for injected task crashes. Raised with
/// `std::panic::panic_any` so the injection is distinguishable (by
/// downcast) from a genuine harness bug, which is re-raised.
#[derive(Debug, Clone, Copy)]
pub struct InjectedCrash {
    /// The attempt that crashed.
    pub attempt: u32,
}

/// Install a process-wide panic hook that silences injected crashes
/// (they are expected, caught, and journaled) while delegating every
/// other panic to the previously installed hook. Idempotent.
fn install_quiet_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info.payload().downcast_ref::<InjectedCrash>().is_some()
                || info.payload().downcast_ref::<crate::pool::InjectedWorkerCrash>().is_some();
            if !injected {
                prev(info);
            }
        }));
    });
}

/// How one attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttemptVerdict {
    /// The session finished (and passed the gate, when one is wired).
    Completed,
    /// The task panicked; the harness caught it.
    Panicked,
    /// The task wedged or overran its step budget and was reaped.
    DeadlineExceeded,
    /// The static auditor gate rejected the produced artifacts.
    GateRejected,
}

/// One attempt at one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttemptRecord {
    /// 0-based attempt number.
    pub attempt: u32,
    /// How it ended.
    pub verdict: AttemptVerdict,
    /// Virtual ticks the attempt consumed.
    pub steps: u64,
    /// Backoff ticks charged after this attempt (0 on success or on
    /// the final attempt).
    pub backoff: u64,
}

/// Terminal status of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellStatus {
    /// An attempt completed.
    Completed,
    /// Every attempt failed; the cell is quarantined.
    Quarantined,
    /// Never attempted: its class's breaker had already tripped.
    SkippedByBreaker,
}

/// Measured outcome of a completed cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// Participant letter.
    pub participant: String,
    /// Prompts sent (Figure 4, left axis).
    pub prompts: u64,
    /// Words sent (Figure 4, right axis).
    pub words: u64,
    /// Generated LoC (Figure 5 numerator).
    pub loc: u64,
    /// Defects shipped in the prototype.
    pub residual_defects: Vec<DefectKind>,
    /// Error-severity findings from the auditor gate (0 without a gate).
    pub gate_errors: u64,
    /// Warning-severity findings from the auditor gate.
    pub gate_warnings: u64,
    /// Canonical verdict digest of the cell's fat-tree DPV run
    /// ([`crate::dpv_scale`]); `None` at [`TopoScale::Paper`], and
    /// omitted from the serialized record then, so pre-scale journal
    /// bytes are unchanged.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub dpv_digest: Option<String>,
}

/// Aggregated fault counts (session injectors + the harness injector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultTally {
    /// Faults injected.
    pub injected: u64,
    /// Faults absorbed by the resilience machinery.
    pub absorbed: u64,
    /// Faults that escaped.
    pub escaped: u64,
}

impl FaultTally {
    /// The zero tally.
    pub fn zero() -> Self {
        FaultTally { injected: 0, absorbed: 0, escaped: 0 }
    }

    /// Fold one injector's report in.
    pub fn add(&mut self, report: &ResilienceReport) {
        self.injected += report.injected;
        self.absorbed += report.absorbed;
        self.escaped += report.escaped;
    }

    /// Fold another tally in.
    pub fn merge(&mut self, other: &FaultTally) {
        self.injected += other.injected;
        self.absorbed += other.absorbed;
        self.escaped += other.escaped;
    }
}

/// Everything the journal stores for one cell: the write-ahead unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellRecord {
    /// Which cell.
    pub cell: CellId,
    /// How it ended.
    pub status: CellStatus,
    /// Every attempt, in order (empty for skipped cells).
    pub attempts: Vec<AttemptRecord>,
    /// The outcome (present iff `status == Completed`).
    pub result: Option<CellResult>,
    /// Fault counts across all attempts plus the harness injector.
    pub faults: FaultTally,
    /// Virtual clock when the cell started.
    pub clock_start: u64,
    /// Virtual clock when the cell ended.
    pub clock_end: u64,
}

/// First journal line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Layout version ([`JOURNAL_VERSION`]).
    pub version: u32,
    /// [`SweepConfig::fingerprint`] of the sweep that wrote the journal.
    pub fingerprint: String,
    /// Matrix size, for early mismatch detection.
    pub total_cells: u64,
    /// Memoization scheme the sweep ran under
    /// ([`crate::cache::SCHEME`]). Deliberately independent of whether
    /// a memo was attached or warm — cache on/off journals must stay
    /// byte-identical — but an incompatible key-derivation change bumps
    /// the scheme string and rejects stale journals at resume.
    pub cache: String,
}

impl JournalHeader {
    /// The header a journal of `config` starts with.
    fn for_config(config: &SweepConfig) -> Self {
        JournalHeader {
            version: JOURNAL_VERSION,
            fingerprint: config.fingerprint(),
            total_cells: config.total_cells() as u64,
            cache: crate::cache::SCHEME.to_string(),
        }
    }
}

/// One journaled cell line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellLine {
    /// Position in the canonical expansion (must be contiguous).
    pub index: u64,
    /// The record.
    pub record: CellRecord,
}

/// Where journal lines go. Implementations must make a line durable
/// before returning — the write-ahead guarantee is only as strong as
/// the sink.
pub trait JournalSink {
    /// Append one newline-terminated line.
    fn append(&mut self, line: &str) -> Result<(), String>;
}

/// In-memory sink for tests.
#[derive(Debug, Default, Clone)]
pub struct MemoryJournal {
    text: String,
}

impl MemoryJournal {
    /// An empty journal.
    pub fn new() -> Self {
        MemoryJournal::default()
    }

    /// A journal pre-loaded with `text` (simulates a file found on
    /// disk before resume).
    pub fn with_text(text: &str) -> Self {
        MemoryJournal { text: text.to_string() }
    }

    /// Everything appended so far.
    pub fn text(&self) -> &str {
        &self.text
    }
}

impl JournalSink for MemoryJournal {
    fn append(&mut self, line: &str) -> Result<(), String> {
        self.text.push_str(line);
        Ok(())
    }
}

/// Which journal-header field disagreed with the resuming run. Typed
/// so the CLI can name the field and print the matching remedy instead
/// of a generic refusal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MismatchField {
    /// Journal layout version ([`JOURNAL_VERSION`]).
    Version,
    /// [`SweepConfig::fingerprint`] of the matrix + limits.
    Fingerprint,
    /// Matrix size.
    TotalCells,
    /// Memoization scheme identifier ([`crate::cache::SCHEME`]).
    CacheScheme,
}

impl MismatchField {
    /// Stable lowercase field name (the CLI tests grep for it).
    pub fn name(self) -> &'static str {
        match self {
            MismatchField::Version => "version",
            MismatchField::Fingerprint => "fingerprint",
            MismatchField::TotalCells => "total-cells",
            MismatchField::CacheScheme => "cache-scheme",
        }
    }

    /// What the operator should do about it.
    pub fn hint(self) -> &'static str {
        match self {
            MismatchField::Version => {
                "this journal was written by an incompatible build; \
                 delete it (or point --journal elsewhere) to start fresh"
            }
            MismatchField::Fingerprint => {
                "the sweep matrix or limits differ from the run that wrote \
                 this journal; resume with the original flags, or delete \
                 the journal to sweep the new matrix"
            }
            MismatchField::TotalCells => {
                "the matrix size changed; resume with the original axes, \
                 or delete the journal to start fresh"
            }
            MismatchField::CacheScheme => {
                "the memoization key derivation changed incompatibly; \
                 delete the journal to re-sweep under the new scheme"
            }
        }
    }
}

/// Why a journal cannot be replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// A header field disagrees with the resuming run's configuration.
    Mismatch {
        /// Which field.
        field: MismatchField,
        /// The value the journal recorded.
        found: String,
        /// The value this run expects.
        expected: String,
    },
    /// A non-trailing line is unreadable; the journal is damaged beyond
    /// the safe prefix-drop recovery.
    Corrupt {
        /// 0-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl JournalError {
    /// A header-field mismatch.
    pub fn mismatch(
        field: MismatchField,
        found: impl Into<String>,
        expected: impl Into<String>,
    ) -> Self {
        JournalError::Mismatch { field, found: found.into(), expected: expected.into() }
    }
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Mismatch { field, found, expected } => write!(
                f,
                "journal mismatch: {} — journal has {found}, this run expects {expected}; {}",
                field.name(),
                field.hint()
            ),
            JournalError::Corrupt { line, message } => {
                write!(f, "journal corrupt at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<crate::wal::Corrupt> for JournalError {
    fn from(c: crate::wal::Corrupt) -> Self {
        JournalError::Corrupt { line: c.line, message: c.message }
    }
}

/// The replayable prefix of a journal: its header and the committed
/// cell records, in canonical order.
pub type Replay = crate::wal::Prefix<JournalHeader, CellRecord>;

/// Validate a journal header (version, fingerprint, matrix size, cache
/// scheme) against `config`.
fn check_header(
    header: &JournalHeader,
    config: &SweepConfig,
    total_cells: usize,
) -> Result<(), JournalError> {
    if header.version != JOURNAL_VERSION {
        return Err(JournalError::mismatch(
            MismatchField::Version,
            header.version.to_string(),
            JOURNAL_VERSION.to_string(),
        ));
    }
    let fingerprint = config.fingerprint();
    if header.fingerprint != fingerprint {
        return Err(JournalError::mismatch(
            MismatchField::Fingerprint,
            header.fingerprint.clone(),
            fingerprint,
        ));
    }
    if header.total_cells != total_cells as u64 {
        return Err(JournalError::mismatch(
            MismatchField::TotalCells,
            header.total_cells.to_string(),
            total_cells.to_string(),
        ));
    }
    if header.cache != crate::cache::SCHEME {
        return Err(JournalError::mismatch(
            MismatchField::CacheScheme,
            header.cache.clone(),
            crate::cache::SCHEME,
        ));
    }
    Ok(())
}

/// Parse a journal against `config`, returning the replayable prefix
/// under [`crate::wal`]'s recovery policy: a dropped trailing record's
/// cell re-runs, earlier damage is [`JournalError::Corrupt`], and a
/// header whose fingerprint, version or matrix size disagrees with
/// `config` is [`JournalError::Mismatch`]. Record `i` must carry index
/// `i` and the matrix's `i`-th cell.
pub fn parse_journal(text: &str, config: &SweepConfig) -> Result<Replay, JournalError> {
    let cells = config.expand();
    crate::wal::parse(
        text,
        |header: &JournalHeader| check_header(header, config, cells.len()),
        |i, cl: CellLine| {
            if cl.index != i as u64 {
                return Err(format!("index {} out of order (expected {i})", cl.index));
            }
            match cells.get(i) {
                Some(cell) if *cell == cl.record.cell => Ok(cl.record),
                Some(cell) => Err(format!("cell {} (expected {})", cl.record.cell.key(), cell.key())),
                None => Err(format!("{} records but the matrix has {} cells", i + 1, cells.len())),
            }
        },
    )
}

/// Hook the CLI uses to wire the static auditor gate in without making
/// `core` depend on `analysis`: given the spec and the shipped
/// artifacts, return the gate summary. `Send + Sync` because pool
/// workers call the gate from their own threads.
pub type GateFn = Box<dyn Fn(&PaperSpec, &[CodeArtifact]) -> StaticGate + Send + Sync>;

/// Coverage accounting over the full matrix. Invariant: `completed +
/// quarantined + skipped_by_breaker == total` and `attempted ==
/// completed + quarantined` — no cell is ever silently dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Coverage {
    /// Matrix size.
    pub total: u64,
    /// Cells that ran at least one attempt.
    pub attempted: u64,
    /// Cells that completed.
    pub completed: u64,
    /// Cells that exhausted their retries.
    pub quarantined: u64,
    /// Cells skipped because their class's breaker had tripped.
    pub skipped_by_breaker: u64,
}

impl Coverage {
    /// Whether the accounting sums to the full matrix.
    pub fn consistent(&self) -> bool {
        self.completed + self.quarantined + self.skipped_by_breaker == self.total
            && self.attempted == self.completed + self.quarantined
    }
}

/// One quarantined cell, surfaced in the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantineEntry {
    /// Which cell.
    pub cell: CellId,
    /// Attempts it burned.
    pub attempts: u64,
    /// Verdict of the final attempt.
    pub last_verdict: Option<AttemptVerdict>,
}

/// Per-class breaker state in the final report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BreakerEntry {
    /// Breaker class (system × profile).
    pub class: String,
    /// Quarantines accumulated by the class.
    pub quarantined: u64,
    /// Whether the breaker tripped (skipping later cells).
    pub tripped: bool,
}

/// Quarantined cells per breaker class (system × profile).
type BreakerCounts = BTreeMap<String, u32>;

/// Progress of one bounded, job-scoped slice ([`Sweep::run_slice`]).
#[derive(Debug, Clone, PartialEq)]
pub struct JobStep {
    /// Cells journaled after the slice (the committed prefix).
    pub journaled: u64,
    /// Matrix size.
    pub total: u64,
    /// Virtual clock after the last committed cell — the serve
    /// daemon's deadline currency (never wall time).
    pub clock: u64,
    /// The assembled report, present once every cell is journaled.
    pub report: Option<SweepReport>,
}

/// The sweep's final, journal-reconstructible output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// [`SweepConfig::fingerprint`] of the sweep.
    pub fingerprint: String,
    /// The configuration that ran.
    pub config: SweepConfig,
    /// Coverage accounting (always sums to the matrix).
    pub coverage: Coverage,
    /// Total virtual ticks consumed.
    pub clock_ticks: u64,
    /// Fault counts across every injector in the sweep.
    pub faults: FaultTally,
    /// Quarantined cells.
    pub quarantine: Vec<QuarantineEntry>,
    /// Breaker state per class that quarantined at least once.
    pub breakers: Vec<BreakerEntry>,
    /// Every cell record, in canonical order.
    pub cells: Vec<CellRecord>,
}

impl SweepReport {
    /// Pretty JSON rendering — the byte-compared resume artifact.
    pub fn render_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Human-readable multi-line summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let c = self.coverage;
        out.push_str(&format!(
            "sweep {}: {} cells — {} completed, {} quarantined, {} skipped by breaker\n",
            self.fingerprint, c.total, c.completed, c.quarantined, c.skipped_by_breaker
        ));
        out.push_str(&format!(
            "clock: {} virtual ticks; faults: {} injected, {} absorbed, {} escaped\n",
            self.clock_ticks, self.faults.injected, self.faults.absorbed, self.faults.escaped
        ));
        for b in &self.breakers {
            out.push_str(&format!(
                "breaker {}: {} quarantined{}\n",
                b.class,
                b.quarantined,
                if b.tripped { " [TRIPPED]" } else { "" }
            ));
        }
        for q in &self.quarantine {
            let verdict = match q.last_verdict {
                Some(AttemptVerdict::Panicked) => "panicked",
                Some(AttemptVerdict::DeadlineExceeded) => "deadline exceeded",
                Some(AttemptVerdict::GateRejected) => "gate rejected",
                Some(AttemptVerdict::Completed) | None => "unknown",
            };
            out.push_str(&format!(
                "quarantined {} after {} attempts (last: {verdict})\n",
                q.cell.key(),
                q.attempts
            ));
        }
        out
    }
}

/// Append committed `record` as journal line `index` and hand it back
/// once the line is durable: with [`Sweep::commit_cell`], the
/// commit-and-append step of [`Sweep::run_slice`].
fn append_record(
    sink: &mut dyn JournalSink,
    index: usize,
    record: CellRecord,
) -> Result<CellRecord, String> {
    let line = CellLine { index: index as u64, record };
    sink.append(&crate::wal::line(&line)?)?;
    Ok(line.record)
}

/// Everything one cell's execution produces *before* commit-time
/// supervision state is applied: the attempt history, the outcome, the
/// fault tally, and the virtual ticks consumed. A pure function of the
/// [`CellId`] (every RNG stream is derived from the cell key), which
/// is what makes out-of-order parallel execution sound: the pool can
/// run cells in any order and the commit step re-anchors them to the
/// canonical clock and breaker state.
#[derive(Debug, Clone, PartialEq)]
pub struct CellWork {
    /// Every attempt, in order.
    pub attempts: Vec<AttemptRecord>,
    /// The outcome (present iff the final attempt completed).
    pub result: Option<CellResult>,
    /// Fault counts across all attempts plus the harness injector.
    pub faults: FaultTally,
    /// Total virtual ticks consumed (steps plus backoff).
    pub ticks: u64,
}

/// The supervised sweep runtime.
pub struct Sweep {
    config: SweepConfig,
    gate: Option<GateFn>,
    workers: usize,
    memo: Option<std::sync::Arc<crate::cache::CellMemo>>,
}

impl std::fmt::Debug for Sweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sweep")
            .field("config", &self.config)
            .field("gate", &self.gate.is_some())
            .field("workers", &self.workers)
            .field("memo", &self.memo.is_some())
            .finish()
    }
}

impl Sweep {
    /// A sweep over `config`, with no auditor gate, executing serially.
    pub fn new(config: SweepConfig) -> Self {
        Sweep { config, gate: None, workers: 1, memo: None }
    }

    /// Wire in the static auditor gate; a rejecting gate fails the
    /// attempt (and can quarantine the cell).
    pub fn with_gate(mut self, gate: GateFn) -> Self {
        self.gate = Some(gate);
        self
    }

    /// Execute cells on `workers` threads (clamped to at least 1).
    /// Cells run out of order but commit in canonical matrix order, so
    /// the journal and report are byte-identical for every worker
    /// count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Attach a memoization store ([`crate::cache::CellMemo`]).
    /// [`Sweep::execute_cell`] is a pure function of the cell id, so a
    /// memo — cold, warm, or shared with other sweeps — cannot change
    /// any journal or report byte; it only skips redundant work.
    pub fn with_cache(mut self, memo: std::sync::Arc<crate::cache::CellMemo>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configuration this sweep runs.
    pub fn config(&self) -> &SweepConfig {
        &self.config
    }

    /// Run the whole matrix from scratch, journaling into `sink`.
    pub fn run(&self, sink: &mut dyn JournalSink) -> Result<SweepReport, String> {
        self.run_from(&Replay::default(), sink)
    }

    /// Replay `replay` and execute every remaining cell, appending each
    /// finished record to `sink` before moving on (write-ahead): a
    /// [`Sweep::run_slice`] with no budget.
    pub fn run_from(&self, replay: &Replay, sink: &mut dyn JournalSink) -> Result<SweepReport, String> {
        let step = self.run_slice(&mut replay.clone(), sink, u64::MAX)?;
        step.report.ok_or_else(|| "sweep stopped before its last cell".to_string())
    }

    /// Continue the job whose committed prefix is `replay`: execute at
    /// most `budget` further cells — each one write-ahead journaled —
    /// then stop and report progress. The serve daemon calls this once
    /// per scheduler slice; [`Sweep::run_from`] calls it with no budget.
    ///
    /// Cells run through the pool ([`crate::pool`]) on the configured
    /// worker count and commit in canonical matrix order. Supervision
    /// state (breaker counts, the virtual clock) advances only at
    /// commit. Before executing a cell, a worker reads the committed
    /// breaker counts and skips the cell if its class has already
    /// tripped: counts only grow, and a cell commits only after it has
    /// executed, so such a cell is still tripped at its commit slot.
    /// [`Sweep::commit_cell`] re-checks for the cell whose class trips
    /// after its worker looked. The journal and report are therefore
    /// byte-identical for every worker count, and one worker — which
    /// commits each cell before it claims the next, every check seeing
    /// every earlier commit — executes no skipped cell at all.
    ///
    /// `replay` is the caller's in-memory copy of the journal and the
    /// slice keeps it in step with the sink: the header it writes is
    /// stored in `header`, and each committed record is pushed onto
    /// `records` only after its append succeeded (`valid_bytes` and
    /// `dropped_partial` still describe the journal as parsed). A
    /// caller that holds the replay between slices therefore never
    /// re-reads the journal; [`parse_journal`] (after a restart) or
    /// `Replay::default()` (a fresh job) starts the chain. When the last
    /// cell commits, the records move into the report and `records`
    /// is left empty.
    ///
    /// Because [`Sweep::execute_cell`] is a pure function of the cell
    /// id and supervision state is rebuilt from the committed prefix
    /// on every call, a journal grown slice by slice — across scheduler
    /// turns, interleaved tenants, or daemon restarts — is
    /// byte-identical to one written by a single uninterrupted run. The
    /// slice size is therefore pure scheduling policy: it can never
    /// change a journal byte.
    pub fn run_slice(
        &self,
        replay: &mut Replay,
        sink: &mut dyn JournalSink,
        budget: u64,
    ) -> Result<JobStep, String> {
        let (cells, mut clock, breaker) = self.open_journal(replay, sink)?;
        let start = replay.records.len();
        let stop = cells.len().min(start.saturating_add(budget as usize));
        // Pre-size: the commit callback pushes here, where a
        // reallocation pause would stall the reorder pipeline.
        replay.records.reserve(stop - start);
        let breaker = std::sync::Mutex::new(breaker);
        let counts = || breaker.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        crate::pool::run_ordered(
            self.workers,
            &cells[start..stop],
            |cell| {
                let tripped = self.breaker_tripped(&counts(), cell);
                (!tripped).then(|| self.execute_cell(cell))
            },
            |offset, work| {
                let i = start + offset;
                // The lock is held for the commit only, never the append.
                let record = self.commit_cell(cells[i], work, &mut clock, &mut counts());
                replay.records.push(append_record(sink, i, record)?);
                Ok(())
            },
        )?;
        let journaled = replay.records.len() as u64;
        let total = cells.len() as u64;
        let report = if journaled == total {
            Some(self.assemble(std::mem::take(&mut replay.records), clock))
        } else {
            None
        };
        Ok(JobStep { journaled, total, clock, report })
    }

    /// The prologue of [`Sweep::run_slice`]: check `replay` against the
    /// matrix, append the header if the journal has none (storing it in
    /// `replay`), and rebuild the virtual clock and breaker counts from
    /// the committed prefix.
    fn open_journal(
        &self,
        replay: &mut Replay,
        sink: &mut dyn JournalSink,
    ) -> Result<(Vec<CellId>, u64, BreakerCounts), String> {
        install_quiet_hook();
        let cells = self.config.expand();
        if replay.records.len() > cells.len() {
            return Err(format!(
                "replay has {} records but the matrix has {} cells",
                replay.records.len(),
                cells.len()
            ));
        }
        if replay.header.is_none() {
            let header = JournalHeader::for_config(&self.config);
            sink.append(&crate::wal::line(&header)?)?;
            replay.header = Some(header);
        }
        let clock = replay.records.last().map_or(0, |r| r.clock_end);
        let mut breaker = BreakerCounts::new();
        for r in &replay.records {
            if r.status == CellStatus::Quarantined {
                *breaker.entry(r.cell.class()).or_insert(0) += 1;
            }
        }
        Ok((cells, clock, breaker))
    }

    /// Whether `cell`'s class has tripped its circuit breaker.
    fn breaker_tripped(&self, breaker: &BTreeMap<String, u32>, cell: CellId) -> bool {
        breaker.get(&cell.class()).copied().unwrap_or(0) >= self.config.limits.breaker_threshold
    }

    /// Commit one cell: the only place supervision state (virtual
    /// clock, breaker counts) advances. Re-validates the breaker *at
    /// commit time* — a cell executed before an earlier-committing cell
    /// quarantined its class past the threshold is discarded here and recorded as [`CellStatus::SkippedByBreaker`],
    /// which is what makes worker-count-independence structural rather
    /// than incidental.
    fn commit_cell(
        &self,
        cell: CellId,
        work: Option<CellWork>,
        clock: &mut u64,
        breaker: &mut BTreeMap<String, u32>,
    ) -> CellRecord {
        let clock_start = *clock;
        let work = match work {
            Some(work) if !self.breaker_tripped(breaker, cell) => work,
            // Either the worker skipped the cell (its class had
            // tripped when it looked), or it executed the cell and the
            // class tripped before the cell's commit slot: both commit
            // as skipped.
            _ => {
                return CellRecord {
                    cell,
                    status: CellStatus::SkippedByBreaker,
                    attempts: Vec::new(),
                    result: None,
                    faults: FaultTally::zero(),
                    clock_start,
                    clock_end: clock_start,
                }
            }
        };
        let status = if work.result.is_some() {
            CellStatus::Completed
        } else {
            *breaker.entry(cell.class()).or_insert(0) += 1;
            CellStatus::Quarantined
        };
        *clock += work.ticks;
        CellRecord {
            cell,
            status,
            attempts: work.attempts,
            result: work.result,
            faults: work.faults,
            clock_start,
            clock_end: *clock,
        }
    }

    /// Execute one cell to completion or retry exhaustion. Pure
    /// function of the cell id (all RNG streams derive from the cell
    /// key), deliberately ignorant of the clock and the breaker — those
    /// belong to [`Sweep::commit_cell`]. That purity is also what makes
    /// memoizing the whole result sound: a warm [`crate::cache::CellMemo`]
    /// hit replays the identical [`CellWork`] without re-running the
    /// session.
    pub(crate) fn execute_cell(&self, cell: CellId) -> CellWork {
        if let Some(memo) = &self.memo {
            if let Some(work) = memo.lookup_work(cell) {
                return work;
            }
        }
        let work = self.execute_cell_uncached(cell);
        if let Some(memo) = &self.memo {
            memo.store_work(cell, &work);
        }
        work
    }

    /// The un-memoized cell execution.
    fn execute_cell_uncached(&self, cell: CellId) -> CellWork {
        let limits = self.config.limits;
        let mut harness_faults =
            FaultPlan::new(cell.profile, derive_seed(cell, 0, SALT_HARNESS)).injector();
        let mut pending: Vec<FaultId> = Vec::new();
        let mut attempts = Vec::new();
        let mut result = None;
        let mut tally = FaultTally::zero();
        let mut ticks = 0u64;
        for attempt in 0..limits.max_attempts {
            let (verdict, steps, outcome) =
                self.run_attempt(cell, attempt, &mut harness_faults, &mut pending, &mut tally);
            ticks += steps;
            let done = verdict == AttemptVerdict::Completed;
            let backoff = if done || attempt + 1 == limits.max_attempts {
                0
            } else {
                limits.backoff(attempt)
            };
            ticks += backoff;
            attempts.push(AttemptRecord { attempt, verdict, steps, backoff });
            if done {
                result = outcome;
                break;
            }
        }
        if result.is_some() {
            // The retries absorbed whatever the harness injected.
            for id in pending.drain(..) {
                harness_faults.absorb(id);
            }
        }
        tally.add(&harness_faults.report());
        CellWork { attempts, result, faults: tally, ticks }
    }

    /// Run one attempt under panic isolation and the step deadline.
    // effect-allow(Panic): injected-crash simulation — the panic is
    // raised and caught inside this function's own catch_unwind.
    fn run_attempt(
        &self,
        cell: CellId,
        attempt: u32,
        harness: &mut FaultInjector,
        pending: &mut Vec<FaultId>,
        tally: &mut FaultTally,
    ) -> (AttemptVerdict, u64, Option<CellResult>) {
        let limits = self.config.limits;
        let panic_fault = harness.roll(FaultSite::Harness, FaultKind::TaskPanic);
        let wedge_fault = if panic_fault.is_none() {
            harness.roll(FaultSite::Harness, FaultKind::TaskWedge)
        } else {
            None
        };
        if let Some(id) = panic_fault {
            pending.push(id);
        }
        if let Some(id) = wedge_fault {
            pending.push(id);
        }
        let wedged = wedge_fault.is_some();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if panic_fault.is_some() {
                std::panic::panic_any(InjectedCrash { attempt });
            }
            if wedged {
                // The task never finishes; the deadline reaps it below.
                return None;
            }
            let mut injector =
                FaultPlan::new(cell.profile, derive_seed(cell, attempt, SALT_FAULTS)).injector();
            // The participant preset is oracle-side and seed-independent:
            // every cell of the (system, style) class shares one, so a
            // memo hit skips rebuilding it per attempt.
            let participant = match &self.memo {
                Some(memo) => memo.participant(cell),
                None => cell.participant(),
            };
            let report = ReproductionSession::new(
                participant,
                derive_seed(cell, attempt, SALT_SESSION),
            )
            .run_with_faults(&mut injector);
            Some((report, injector.report()))
        }));
        match outcome {
            Err(payload) => {
                if payload.downcast_ref::<InjectedCrash>().is_none() {
                    // Not one of ours: a genuine harness/session bug.
                    resume_unwind(payload);
                }
                // A crash is cheap in virtual time: the task died early.
                (AttemptVerdict::Panicked, 1, None)
            }
            Ok(None) => (AttemptVerdict::DeadlineExceeded, limits.deadline_steps, None),
            Ok(Some((report, fault_report))) => {
                tally.add(&fault_report);
                let steps = report.total_prompts() as u64;
                if steps > limits.deadline_steps {
                    // The session overran its budget; charge the budget
                    // (the reaper fires at the deadline, not after).
                    return (AttemptVerdict::DeadlineExceeded, limits.deadline_steps, None);
                }
                let (gate_errors, gate_warnings) = match &self.gate {
                    Some(gate) => {
                        // The spec is shared per system when a memo is
                        // attached instead of being rebuilt per attempt.
                        let g = match &self.memo {
                            Some(memo) => {
                                gate(&memo.spec(cell.system), &report.component_artifacts)
                            }
                            None => {
                                gate(&PaperSpec::for_system(cell.system), &report.component_artifacts)
                            }
                        };
                        if g.rejects() {
                            return (AttemptVerdict::GateRejected, steps, None);
                        }
                        (g.errors as u64, g.warnings as u64)
                    }
                    None => (0, 0),
                };
                // Non-paper scales additionally verify a seeded
                // fat-tree fabric and fingerprint the verdicts; a
                // verification failure fails the attempt like a
                // rejecting gate.
                let dpv_digest = match self.verify_scale(cell, attempt) {
                    Ok(digest) => digest,
                    Err(_) => return (AttemptVerdict::GateRejected, steps, None),
                };
                let words = report.total_words();
                let loc = u64::from(report.artifact.loc);
                let result = CellResult {
                    participant: report.participant,
                    prompts: steps,
                    words,
                    loc,
                    residual_defects: report.residual_defects,
                    gate_errors,
                    gate_warnings,
                    dpv_digest,
                };
                (AttemptVerdict::Completed, steps, Some(result))
            }
        }
    }

    /// Run the cell's scale-dimension verification: nothing at
    /// [`TopoScale::Paper`], otherwise a partitioned DPV pass over the
    /// cell's seeded fat-tree. A pure function of `(cell, attempt)` —
    /// the fabric seed derives from the cell key via its own salt, the
    /// churn level from the fault profile — so memoized, resumed and
    /// parallel runs all reproduce the same digest. Runs serially
    /// (`partitions: 2, workers: 1`) inside the cell; cross-cell
    /// parallelism belongs to the pool.
    // effect-allow(GlobalState): the partitioned DPV runner drives the
    // worker pool (atomic stat counters, channels, scoped threads), but
    // its merged verdict stream commits in canonical partition order —
    // byte-identical at every worker count, so nothing global is
    // observable in the digest; the cell stays a pure function of
    // (CellId, attempt).
    fn verify_scale(&self, cell: CellId, attempt: u32) -> Result<Option<String>, String> {
        let TopoScale::FatTree { k } = cell.scale else {
            return Ok(None);
        };
        let fab_seed = derive_seed(cell, attempt, SALT_FABRIC);
        let link_down = match cell.profile {
            FaultProfile::None => 0,
            _ => 2 + (fab_seed % 11) as usize,
        };
        let spec = crate::dpv_scale::DpvScaleSpec {
            k: k as usize,
            seed: fab_seed,
            link_down,
            queries: Some(2),
            partitions: 2,
            workers: 1,
            node_cap: None,
        };
        let report = crate::dpv_scale::run_spec(&spec).map_err(|e| e.to_string())?;
        Ok(Some(format!("{:016x}", report.digest)))
    }

    /// Fold the records into the final report.
    fn assemble(&self, records: Vec<CellRecord>, clock: u64) -> SweepReport {
        let mut coverage = Coverage {
            total: records.len() as u64,
            attempted: 0,
            completed: 0,
            quarantined: 0,
            skipped_by_breaker: 0,
        };
        let mut faults = FaultTally::zero();
        let mut quarantine = Vec::new();
        let mut by_class: BTreeMap<String, u64> = BTreeMap::new();
        for r in &records {
            faults.merge(&r.faults);
            match r.status {
                CellStatus::Completed => {
                    coverage.attempted += 1;
                    coverage.completed += 1;
                }
                CellStatus::Quarantined => {
                    coverage.attempted += 1;
                    coverage.quarantined += 1;
                    *by_class.entry(r.cell.class()).or_insert(0) += 1;
                    quarantine.push(QuarantineEntry {
                        cell: r.cell,
                        attempts: r.attempts.len() as u64,
                        last_verdict: r.attempts.last().map(|a| a.verdict),
                    });
                }
                CellStatus::SkippedByBreaker => coverage.skipped_by_breaker += 1,
            }
        }
        let threshold = u64::from(self.config.limits.breaker_threshold);
        let breakers = by_class
            .into_iter()
            .map(|(class, quarantined)| BreakerEntry {
                class,
                quarantined,
                tripped: quarantined >= threshold,
            })
            .collect();
        SweepReport {
            fingerprint: self.config.fingerprint(),
            config: self.config.clone(),
            coverage,
            clock_ticks: clock,
            faults,
            quarantine,
            breakers,
            cells: records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SweepConfig {
        SweepConfig {
            systems: vec![TargetSystem::RockPaperScissors, TargetSystem::NcFlow],
            styles: vec![PromptStyle::ModularText],
            seeds: vec![0],
            profiles: vec![FaultProfile::None, FaultProfile::Chaos],
            scales: vec![TopoScale::Paper],
            limits: TaskLimits::default(),
        }
    }

    #[test]
    fn fields_round_trip_through_set_field() {
        // Every value of every list field, and limits off their defaults:
        // the text `fields` writes must rebuild the config exactly, which
        // is what a job spec relies on.
        let config = SweepConfig {
            systems: [&TargetSystem::EXPERIMENT[..], &[TargetSystem::RockPaperScissors]].concat(),
            styles: vec![
                PromptStyle::Monolithic,
                PromptStyle::ModularText,
                PromptStyle::ModularPseudocode,
            ],
            seeds: (0..5).collect(),
            profiles: vec![
                FaultProfile::None,
                FaultProfile::Light,
                FaultProfile::Heavy,
                FaultProfile::Chaos,
            ],
            scales: vec![
                TopoScale::Paper,
                TopoScale::FatTree { k: 4 },
                TopoScale::FatTree { k: 32 },
            ],
            limits: TaskLimits {
                deadline_steps: 77,
                max_attempts: 5,
                breaker_threshold: 9,
                ..TaskLimits::default()
            },
        };
        let mut rebuilt = SweepConfig::default();
        for ((key, values), name) in config.fields().iter().zip(SweepConfig::FIELDS) {
            assert_eq!(*key, name);
            let values = values.iter().map(String::as_str);
            rebuilt.set_field(key, values).expect("a written field parses");
        }
        assert_eq!(rebuilt, config);
        assert_eq!(rebuilt.set_field("seeds", ["0"]), Err("must be at least 1".to_string()));
        assert_eq!(rebuilt.set_field("styles", ["", ""]), Err("empty list".to_string()));
        assert_eq!(rebuilt.set_field("colour", ["blue"]), Err("unknown field".to_string()));
        assert_eq!(rebuilt, config, "a refused field changes nothing");
    }

    #[test]
    fn expansion_is_canonical_and_complete() {
        let cfg = SweepConfig::default();
        let cells = cfg.expand();
        assert_eq!(cells.len(), cfg.total_cells());
        assert_eq!(cells.len(), 4 * 2 * 3 * 2);
        // First axis varies slowest.
        assert_eq!(cells[0].system, TargetSystem::NcFlow);
        assert_eq!(cells[0].profile, FaultProfile::None);
        assert_eq!(cells[1].profile, FaultProfile::Heavy);
        assert_eq!(cells.last().unwrap().system, TargetSystem::ApVerifier);
    }

    #[test]
    fn derived_seeds_do_not_collide_across_streams() {
        let cell = tiny_config().expand()[0];
        let a = derive_seed(cell, 0, SALT_SESSION);
        let b = derive_seed(cell, 0, SALT_FAULTS);
        let c = derive_seed(cell, 0, SALT_HARNESS);
        let d = derive_seed(cell, 1, SALT_SESSION);
        assert!(a != b && b != c && a != c && a != d);
    }

    #[test]
    fn straight_run_is_deterministic() {
        let run = || {
            let sweep = Sweep::new(tiny_config());
            let mut sink = MemoryJournal::new();
            let report = sweep.run(&mut sink).unwrap();
            (report.render_json(), sink.text().to_string())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn resume_at_every_prefix_is_byte_identical() {
        let cfg = tiny_config();
        let sweep = Sweep::new(cfg.clone());
        let mut full_sink = MemoryJournal::new();
        let full = sweep.run(&mut full_sink).unwrap();
        let full_json = full.render_json();
        let lines: Vec<&str> = full_sink.text().split_inclusive('\n').collect();
        for cut in 0..=lines.len() {
            let prefix: String = lines[..cut].concat();
            let replay = parse_journal(&prefix, &cfg).unwrap();
            assert!(!replay.dropped_partial, "clean prefix at cut {cut}");
            let mut sink = MemoryJournal::with_text(&prefix[..replay.valid_bytes as usize]);
            let resumed = sweep.run_from(&replay, &mut sink).unwrap();
            assert_eq!(resumed.render_json(), full_json, "cut at line {cut}");
            assert_eq!(sink.text(), full_sink.text(), "journal rebuilt at cut {cut}");
        }
    }

    #[test]
    fn torn_trailing_record_is_dropped_and_rerun() {
        let cfg = tiny_config();
        let sweep = Sweep::new(cfg.clone());
        let mut full_sink = MemoryJournal::new();
        let full = sweep.run(&mut full_sink).unwrap();
        let text = full_sink.text();
        // Hand-truncate: cut the final record in half, mid-line.
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        let keep: String = lines[..lines.len() - 1].concat();
        let torn = format!("{keep}{}", &lines[lines.len() - 1][..10]);
        let replay = parse_journal(&torn, &cfg).unwrap();
        assert!(replay.dropped_partial);
        assert_eq!(replay.records.len(), cfg.total_cells() - 1);
        assert_eq!(replay.valid_bytes as usize, keep.len());
        let mut sink = MemoryJournal::with_text(&keep);
        let resumed = sweep.run_from(&replay, &mut sink).unwrap();
        assert_eq!(resumed.render_json(), full.render_json());
        assert_eq!(sink.text(), text);
    }

    #[test]
    fn corrupt_trailing_record_with_newline_is_dropped() {
        let cfg = tiny_config();
        let sweep = Sweep::new(cfg.clone());
        let mut sink = MemoryJournal::new();
        sweep.run(&mut sink).unwrap();
        let lines: Vec<&str> = sink.text().split_inclusive('\n').collect();
        let keep: String = lines[..lines.len() - 1].concat();
        let corrupt = format!("{keep}{{\"index\": garbage\n");
        let replay = parse_journal(&corrupt, &cfg).unwrap();
        assert!(replay.dropped_partial);
        assert_eq!(replay.records.len(), cfg.total_cells() - 1);
    }

    #[test]
    fn corrupt_middle_record_is_rejected() {
        let cfg = tiny_config();
        let sweep = Sweep::new(cfg.clone());
        let mut sink = MemoryJournal::new();
        sweep.run(&mut sink).unwrap();
        let mut lines: Vec<String> =
            sink.text().split_inclusive('\n').map(str::to_string).collect();
        lines[1] = "{\"index\": garbage}\n".to_string();
        let damaged: String = lines.concat();
        match parse_journal(&damaged, &cfg) {
            Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 1),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_config_is_rejected() {
        let cfg = tiny_config();
        let sweep = Sweep::new(cfg.clone());
        let mut sink = MemoryJournal::new();
        sweep.run(&mut sink).unwrap();
        let mut other = cfg.clone();
        other.seeds = vec![0, 1];
        match parse_journal(sink.text(), &other) {
            Err(JournalError::Mismatch { field: MismatchField::Fingerprint, .. }) => {}
            other => panic!("expected a fingerprint Mismatch, got {other:?}"),
        }
    }

    #[test]
    fn mismatch_errors_name_the_field_and_a_remedy() {
        let cfg = tiny_config();
        let sweep = Sweep::new(cfg.clone());
        let mut sink = MemoryJournal::new();
        sweep.run(&mut sink).unwrap();
        let header_line = sink.text().split_inclusive('\n').next().unwrap();
        let mut header: JournalHeader = serde_json::from_str(header_line.trim_end()).unwrap();
        header.version = JOURNAL_VERSION + 1;
        let doctored = format!("{}\n", serde_json::to_string(&header).unwrap());
        let err = parse_journal(&doctored, &cfg).unwrap_err();
        match &err {
            JournalError::Mismatch { field: MismatchField::Version, found, expected } => {
                assert_eq!(found, &(JOURNAL_VERSION + 1).to_string());
                assert_eq!(expected, &JOURNAL_VERSION.to_string());
            }
            other => panic!("expected a version Mismatch, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("journal mismatch: version"), "{msg}");
        assert!(msg.contains("incompatible build"), "mismatch must carry a remedy: {msg}");

        let mut cached = serde_json::from_str::<JournalHeader>(header_line.trim_end()).unwrap();
        cached.cache = "cellmemo-v0/other".to_string();
        let doctored = format!("{}\n", serde_json::to_string(&cached).unwrap());
        match parse_journal(&doctored, &cfg) {
            Err(JournalError::Mismatch { field: MismatchField::CacheScheme, .. }) => {}
            other => panic!("expected a cache-scheme Mismatch, got {other:?}"),
        }
    }

    #[test]
    fn chaos_sweep_quarantines_and_coverage_sums() {
        let cfg = SweepConfig {
            profiles: vec![FaultProfile::Chaos],
            seeds: (0..4).collect(),
            ..SweepConfig::default()
        };
        let sweep = Sweep::new(cfg);
        let mut sink = MemoryJournal::new();
        let report = sweep.run(&mut sink).unwrap();
        assert!(report.coverage.consistent(), "{:?}", report.coverage);
        assert!(
            !report.quarantine.is_empty(),
            "chaos must quarantine at least one cell: {:?}",
            report.coverage
        );
        assert_eq!(report.quarantine.len() as u64, report.coverage.quarantined);
        assert!(report.faults.injected > 0);
    }

    #[test]
    fn none_profile_without_gate_completes_everything() {
        let mut cfg = tiny_config();
        cfg.profiles = vec![FaultProfile::None];
        let sweep = Sweep::new(cfg.clone());
        let mut sink = MemoryJournal::new();
        let report = sweep.run(&mut sink).unwrap();
        assert_eq!(report.coverage.completed, cfg.total_cells() as u64);
        assert_eq!(report.faults.injected, 0);
        for cell in &report.cells {
            assert_eq!(cell.attempts.len(), 1);
            assert_eq!(cell.attempts[0].verdict, AttemptVerdict::Completed);
        }
    }

    #[test]
    fn tight_deadline_quarantines_and_trips_breaker() {
        let mut cfg = tiny_config();
        cfg.systems = vec![TargetSystem::NcFlow];
        cfg.profiles = vec![FaultProfile::None];
        cfg.seeds = (0..5).collect();
        cfg.limits.deadline_steps = 5; // every session needs more prompts
        cfg.limits.breaker_threshold = 3;
        let sweep = Sweep::new(cfg.clone());
        let mut sink = MemoryJournal::new();
        let report = sweep.run(&mut sink).unwrap();
        assert!(report.coverage.consistent());
        assert_eq!(report.coverage.quarantined, 3);
        assert_eq!(report.coverage.skipped_by_breaker, 2);
        assert_eq!(report.breakers.len(), 1);
        assert!(report.breakers[0].tripped);
        for q in &report.quarantine {
            assert_eq!(q.last_verdict, Some(AttemptVerdict::DeadlineExceeded));
        }
        // Deadline attempts charge exactly the budget, plus backoff.
        let first = &report.cells[0];
        assert_eq!(first.attempts.len(), cfg.limits.max_attempts as usize);
        for a in &first.attempts {
            assert_eq!(a.steps, cfg.limits.deadline_steps);
        }
    }

    #[test]
    fn backoff_grows_and_caps() {
        let limits = TaskLimits {
            deadline_steps: 400,
            max_attempts: 8,
            backoff_base: 8,
            backoff_cap: 64,
            breaker_threshold: 3,
        };
        let seq: Vec<u64> = (0..8).map(|a| limits.backoff(a)).collect();
        assert_eq!(seq, vec![8, 16, 32, 64, 64, 64, 64, 64]);
    }

    #[test]
    fn backoff_saturates_at_cap_for_large_attempts() {
        // Regression: `8u64.checked_shl(61)` is `Some(0)` — the value
        // wraps while the shift amount is still < 64 — which used to
        // collapse the backoff to `min(0, cap) = 0` from attempt 61 on.
        let limits = TaskLimits {
            deadline_steps: 400,
            max_attempts: 128,
            backoff_base: 8,
            backoff_cap: 64,
            breaker_threshold: 3,
        };
        for attempt in 0..=70u32 {
            let got = limits.backoff(attempt);
            let want = if attempt >= 3 { 64 } else { 8u64 << attempt };
            assert_eq!(got, want, "attempt {attempt}");
            assert!(got > 0, "backoff must never collapse to 0 (attempt {attempt})");
        }
        // An enormous cap exposes the raw shift: the wrap point is
        // where saturation must kick in, not wrap to zero.
        let wide = TaskLimits { backoff_cap: u64::MAX, ..limits };
        assert_eq!(wide.backoff(60), 8 << 60);
        for attempt in 61..=70u32 {
            assert_eq!(wide.backoff(attempt), u64::MAX, "attempt {attempt}");
        }
        // Degenerate base: no backoff at all, at any attempt.
        let zero = TaskLimits { backoff_base: 0, ..limits };
        for attempt in 0..=70u32 {
            assert_eq!(zero.backoff(attempt), 0);
        }
    }

    #[test]
    fn parallel_run_matches_serial_bytes() {
        let mut cfg = tiny_config();
        cfg.seeds = vec![0, 1, 2];
        let serial = {
            let mut sink = MemoryJournal::new();
            let report = Sweep::new(cfg.clone()).run(&mut sink).unwrap();
            (report.render_json(), sink.text().to_string())
        };
        for workers in [2, 4, 8] {
            let mut sink = MemoryJournal::new();
            let report =
                Sweep::new(cfg.clone()).with_workers(workers).run(&mut sink).unwrap();
            assert_eq!(report.render_json(), serial.0, "report differs at workers={workers}");
            assert_eq!(sink.text(), serial.1, "journal differs at workers={workers}");
        }
    }

    #[test]
    fn parallel_commit_revalidates_breaker() {
        // Tight deadline: every cell quarantines until the breaker
        // trips, so a worker may execute a cell before an earlier
        // commit trips its class — commit-time re-validation must
        // discard it and record SkippedByBreaker identically.
        let mut cfg = tiny_config();
        cfg.systems = vec![TargetSystem::NcFlow];
        cfg.profiles = vec![FaultProfile::None];
        cfg.seeds = (0..6).collect();
        cfg.limits.deadline_steps = 5;
        cfg.limits.breaker_threshold = 3;
        let mut serial_sink = MemoryJournal::new();
        let serial = Sweep::new(cfg.clone()).run(&mut serial_sink).unwrap();
        assert!(serial.coverage.skipped_by_breaker > 0, "{:?}", serial.coverage);
        for workers in [2, 4, 8] {
            let mut sink = MemoryJournal::new();
            let report =
                Sweep::new(cfg.clone()).with_workers(workers).run(&mut sink).unwrap();
            assert_eq!(report.render_json(), serial.render_json(), "workers={workers}");
            assert_eq!(sink.text(), serial_sink.text(), "workers={workers}");
        }
    }

    /// A config whose breaker trips mid-class: 5 seeds of one class,
    /// threshold 3 — cells 0..2 quarantine, cells 3..4 are skipped.
    fn tripping_config() -> SweepConfig {
        let mut cfg = tiny_config();
        cfg.systems = vec![TargetSystem::NcFlow];
        cfg.profiles = vec![FaultProfile::None];
        cfg.seeds = (0..5).collect();
        cfg.limits.deadline_steps = 5;
        cfg.limits.breaker_threshold = 3;
        cfg
    }

    #[test]
    fn breaker_rebuild_is_exact_at_every_resume_point() {
        // Regression for the run_from breaker rebuild: resuming at any
        // prefix — including mid-class with the quarantine count at
        // threshold−1 — must neither skip a cell the live run executed
        // nor execute a cell the live run skipped.
        let cfg = tripping_config();
        let sweep = Sweep::new(cfg.clone());
        let mut full_sink = MemoryJournal::new();
        let full = sweep.run(&mut full_sink).unwrap();
        assert_eq!(full.coverage.quarantined, 3);
        assert_eq!(full.coverage.skipped_by_breaker, 2);
        let lines: Vec<&str> = full_sink.text().split_inclusive('\n').collect();
        for cut in 0..=lines.len() {
            let prefix: String = lines[..cut].concat();
            let replay = parse_journal(&prefix, &cfg).unwrap();
            let mut sink = MemoryJournal::with_text(&prefix);
            let resumed = sweep.run_from(&replay, &mut sink).unwrap();
            assert_eq!(resumed.render_json(), full.render_json(), "cut at line {cut}");
            assert_eq!(sink.text(), full_sink.text(), "journal rebuilt at cut {cut}");
        }
        // The threshold−1 landing specifically: two quarantines
        // replayed (header + 2 records), the breaker sits one short of
        // tripping, and the next executed cell must tip it over.
        let prefix: String = lines[..3].concat();
        let replay = parse_journal(&prefix, &cfg).unwrap();
        assert_eq!(
            replay.records.iter().filter(|r| r.status == CellStatus::Quarantined).count(),
            2
        );
        let mut sink = MemoryJournal::with_text(&prefix);
        let resumed = sweep.run_from(&replay, &mut sink).unwrap();
        assert_eq!(resumed.coverage.skipped_by_breaker, 2);
        assert_eq!(resumed.render_json(), full.render_json());
    }

    #[test]
    fn commit_discards_an_executed_cell_whose_class_already_tripped() {
        // The pool reaches this branch only when a helper runs ahead of
        // the commit slot that trips the breaker; drive it directly.
        // Cells 0..=2 quarantine and trip the class, then cell 3 arrives
        // executed: it must commit as skipped, as in the serial run.
        let cfg = tripping_config();
        let sweep = Sweep::new(cfg.clone());
        let full = sweep.run(&mut MemoryJournal::new()).unwrap();
        let cells = cfg.expand();
        let (mut clock, mut breaker) = (0u64, BreakerCounts::new());
        for &cell in &cells[..3] {
            let work = Some(sweep.execute_cell(cell));
            let record = sweep.commit_cell(cell, work, &mut clock, &mut breaker);
            assert_eq!(record.status, CellStatus::Quarantined, "{}", cell.key());
        }
        let work = sweep.execute_cell(cells[3]);
        assert!(!work.attempts.is_empty(), "cell 3 really ran");
        let (clock_before, breaker_before) = (clock, breaker.clone());
        let record = sweep.commit_cell(cells[3], Some(work), &mut clock, &mut breaker);
        assert_eq!(record.status, CellStatus::SkippedByBreaker);
        assert!(record.attempts.is_empty() && record.result.is_none());
        assert_eq!((record.clock_start, record.clock_end), (clock_before, clock_before));
        assert_eq!((clock, breaker), (clock_before, breaker_before), "nothing advances");
        assert_eq!(record, full.cells[3]);
    }

    #[test]
    fn one_worker_never_executes_a_skipped_cell() {
        // A fresh memo counts one miss per executed cell, so at one
        // worker the misses must be exactly the cells that ran — both
        // for a whole run and for a job stepped one cell per slice.
        let cfg = tripping_config();
        let memo = std::sync::Arc::new(crate::cache::CellMemo::new());
        let sweep = Sweep::new(cfg.clone()).with_cache(std::sync::Arc::clone(&memo));
        let full = sweep.run(&mut MemoryJournal::new()).unwrap();
        assert_eq!(full.coverage.skipped_by_breaker, 2);
        let ran = full.coverage.completed + full.coverage.quarantined;
        assert_eq!(memo.work_stats().misses, ran);

        let memo = std::sync::Arc::new(crate::cache::CellMemo::new());
        let sweep = Sweep::new(cfg).with_cache(std::sync::Arc::clone(&memo));
        let (mut replay, mut sink) = (Replay::default(), MemoryJournal::new());
        let report = loop {
            if let Some(report) = sweep.run_slice(&mut replay, &mut sink, 1).unwrap().report {
                break report;
            }
        };
        assert_eq!(report.render_json(), full.render_json());
        assert_eq!(memo.work_stats().misses, ran);
    }

    #[test]
    fn parallel_resume_matches_serial_resume_at_every_prefix() {
        let cfg = tripping_config();
        let sweep = Sweep::new(cfg.clone());
        let mut full_sink = MemoryJournal::new();
        let full = sweep.run(&mut full_sink).unwrap();
        let lines: Vec<&str> = full_sink.text().split_inclusive('\n').collect();
        let parallel = Sweep::new(cfg.clone()).with_workers(4);
        for cut in 0..=lines.len() {
            let prefix: String = lines[..cut].concat();
            let replay = parse_journal(&prefix, &cfg).unwrap();
            let mut sink = MemoryJournal::with_text(&prefix);
            let resumed = parallel.run_from(&replay, &mut sink).unwrap();
            assert_eq!(resumed.render_json(), full.render_json(), "cut at line {cut}");
            assert_eq!(sink.text(), full_sink.text(), "journal rebuilt at cut {cut}");
        }
    }

    #[test]
    fn torn_header_prefix_is_a_fresh_journal() {
        // A journal whose only content is a partial header line — the
        // process died mid-way through the very first append — must be
        // treated as empty (fresh header rewritten on resume), never as
        // a hard parse error.
        let cfg = tiny_config();
        let sweep = Sweep::new(cfg.clone());
        let mut full_sink = MemoryJournal::new();
        let full = sweep.run(&mut full_sink).unwrap();
        let header_line = full_sink.text().split_inclusive('\n').next().unwrap();
        // Every strict prefix of the header, newline excluded: torn.
        for cut in 1..header_line.len() - 1 {
            let torn = &header_line[..cut];
            let replay = parse_journal(torn, &cfg)
                .unwrap_or_else(|e| panic!("torn header prefix ({cut} bytes) must parse: {e}"));
            assert!(replay.dropped_partial, "cut {cut}");
            assert!(replay.header.is_none(), "cut {cut}");
            assert_eq!(replay.valid_bytes, 0, "cut {cut}");
            assert!(replay.records.is_empty(), "cut {cut}");
            // And the resume is a full, byte-identical fresh run.
            let mut sink = MemoryJournal::new();
            let resumed = sweep.run_from(&replay, &mut sink).unwrap();
            assert_eq!(resumed.render_json(), full.render_json(), "cut {cut}");
            assert_eq!(sink.text(), full_sink.text(), "cut {cut}");
        }
        // A *complete but unterminated* header (torn before the
        // newline) is also a fresh start — the record includes its
        // terminator.
        let unterminated = header_line.trim_end_matches('\n');
        let replay = parse_journal(unterminated, &cfg).unwrap();
        assert!(replay.dropped_partial && replay.header.is_none());
        assert_eq!(replay.valid_bytes, 0);
    }

    #[test]
    fn newline_terminated_garbage_header_is_corrupt() {
        // A terminated garbage first line is damage, not a torn write
        // (torn appends never end in a newline): rejected outright.
        match parse_journal("not json at all\n", &tiny_config()) {
            Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 0),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn skipped_cells_cost_no_clock() {
        let mut cfg = tiny_config();
        cfg.systems = vec![TargetSystem::RockPaperScissors];
        cfg.profiles = vec![FaultProfile::None];
        cfg.seeds = (0..4).collect();
        cfg.limits.deadline_steps = 1;
        cfg.limits.breaker_threshold = 1;
        let sweep = Sweep::new(cfg);
        let mut sink = MemoryJournal::new();
        let report = sweep.run(&mut sink).unwrap();
        assert_eq!(report.coverage.quarantined, 1);
        assert_eq!(report.coverage.skipped_by_breaker, 3);
        for cell in report.cells.iter().filter(|c| c.status == CellStatus::SkippedByBreaker) {
            assert_eq!(cell.clock_start, cell.clock_end);
            assert!(cell.attempts.is_empty());
            assert_eq!(cell.faults, FaultTally::zero());
        }
    }

    #[test]
    fn gate_rejections_feed_quarantine() {
        // A gate that rejects everything: every cell must quarantine
        // with GateRejected and the coverage must still sum.
        let cfg = tiny_config();
        let total = cfg.total_cells() as u64;
        let sweep = Sweep::new(cfg).with_gate(Box::new(|_, _| StaticGate {
            errors: 1,
            warnings: 0,
            worst: "always-reject".to_string(),
        }));
        let mut sink = MemoryJournal::new();
        let report = sweep.run(&mut sink).unwrap();
        assert!(report.coverage.consistent());
        assert_eq!(report.coverage.completed, 0);
        assert_eq!(report.coverage.quarantined + report.coverage.skipped_by_breaker, total);
        assert!(report
            .quarantine
            .iter()
            .any(|q| q.last_verdict == Some(AttemptVerdict::GateRejected)));
    }

    #[test]
    fn real_panics_are_not_swallowed() {
        // A gate that panics with a non-injected payload simulates a
        // harness bug: run_from must propagate it, not journal it.
        let cfg = tiny_config();
        let sweep = Sweep::new(cfg).with_gate(Box::new(|_, _| {
            std::panic::panic_any("harness bug".to_string())
        }));
        let mut sink = MemoryJournal::new();
        let caught = catch_unwind(AssertUnwindSafe(|| sweep.run(&mut sink)));
        let payload = caught.expect_err("the bug must escape the harness");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("harness bug"));
    }

    #[test]
    fn journal_header_round_trips() {
        let h = JournalHeader {
            version: JOURNAL_VERSION,
            fingerprint: "00deadbeef00cafe".to_string(),
            total_cells: 48,
            cache: crate::cache::SCHEME.to_string(),
        };
        let line = crate::wal::line(&h).unwrap();
        assert!(line.ends_with('\n'));
        let back: JournalHeader = serde_json::from_str(line.trim_end()).unwrap();
        assert_eq!(h, back);
    }

    #[test]
    fn empty_journal_text_is_a_fresh_run() {
        let replay = parse_journal("", &tiny_config()).unwrap();
        assert_eq!(replay, Replay::default());
    }

    #[test]
    fn topo_scale_parse_inverts_name_and_rejects_bad_arities() {
        for scale in [TopoScale::Paper, TopoScale::FatTree { k: 4 }, TopoScale::FatTree { k: 16 }]
        {
            assert_eq!(TopoScale::parse(&scale.name()), Some(scale));
        }
        for bad in ["ft3", "ft12", "ft2", "ft64", "ft", "fat4", "", "ft08"] {
            assert_eq!(TopoScale::parse(bad), None, "{bad:?} must be rejected");
        }
    }

    #[test]
    fn pre_scale_journal_bytes_are_unchanged() {
        // Serialisation: every new field must vanish at its default, so
        // journals and fingerprints written before the scale axis
        // existed stay byte-identical.
        let cfg = tiny_config();
        let cfg_json = serde_json::to_string(&cfg).unwrap();
        assert!(!cfg_json.contains("scales"), "default scales must be omitted: {cfg_json}");
        let cell = cfg.expand()[0];
        let cell_json = serde_json::to_string(&cell).unwrap();
        assert!(!cell_json.contains("scale"), "paper scale must be omitted: {cell_json}");
        assert!(!cell.key().contains("paper"), "paper cells keep pre-scale keys");

        // Deserialisation: pre-scale JSON (no `scales`/`scale` keys)
        // parses to the defaults and round-trips to the same bytes.
        let back: SweepConfig = serde_json::from_str(&cfg_json).unwrap();
        assert_eq!(back, cfg);
        assert_eq!(back.scales, vec![TopoScale::Paper]);
        assert_eq!(serde_json::to_string(&back).unwrap(), cfg_json);
        let cell_back: CellId = serde_json::from_str(&cell_json).unwrap();
        assert_eq!(cell_back, cell);

        // And the fingerprint — the journal-header compatibility gate —
        // is exactly the pre-scale one for a pre-scale-shaped config.
        assert_eq!(cfg.fingerprint(), {
            let mut pre = cfg.clone();
            pre.scales = default_scales();
            pre.fingerprint()
        });
    }

    #[test]
    fn scale_cells_record_deterministic_dpv_digests() {
        let mut cfg = tiny_config();
        cfg.profiles = vec![FaultProfile::None, FaultProfile::Light];
        cfg.scales = vec![TopoScale::Paper, TopoScale::FatTree { k: 4 }];
        let run = |workers: usize| {
            let mut sink = MemoryJournal::new();
            let report =
                Sweep::new(cfg.clone()).with_workers(workers).run(&mut sink).unwrap();
            (report.render_json(), sink.text().to_string())
        };
        let serial = run(1);
        for workers in [2usize, 4] {
            assert_eq!(run(workers), serial, "scale sweep differs at workers={workers}");
        }
        // Paper cells carry no digest; completed fat-tree cells carry a
        // 16-hex one. Both kinds must be present in this matrix.
        let replay = parse_journal(&serial.1, &cfg).unwrap();
        let mut paper = 0usize;
        let mut ft = 0usize;
        for rec in &replay.records {
            let digest = rec.result.as_ref().and_then(|r| r.dpv_digest.as_deref());
            match (rec.cell.scale, rec.status) {
                (TopoScale::Paper, _) => {
                    assert_eq!(digest, None, "paper cell with digest: {}", rec.cell.key());
                    paper += 1;
                }
                (TopoScale::FatTree { .. }, CellStatus::Completed) => {
                    let d = digest.expect("completed scale cell has a digest");
                    assert_eq!(d.len(), 16, "digest must be 16 hex chars: {d}");
                    assert!(d.bytes().all(|b| b.is_ascii_hexdigit()));
                    ft += 1;
                }
                (TopoScale::FatTree { .. }, _) => {}
            }
        }
        assert!(paper > 0 && ft > 0, "matrix must exercise both scales ({paper}/{ft})");
    }
}
