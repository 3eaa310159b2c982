//! `netrepro-core` — the HotNets'23 paper's contribution: a framework
//! for reproducing network research results by prompt-engineering an
//! LLM, together with the survey pipeline behind its motivation figures.
//!
//! # What is real and what is simulated
//!
//! The paper's experiment put four students in front of ChatGPT for 25
//! days. Its measurable outputs are *process* artifacts — prompt and
//! word counts (Figure 4), lines of code (Figure 5), residual-defect
//! stories (§3.2) and the prompting/debugging lessons (§3.3) — plus
//! *outcome* artifacts: each reproduced prototype validated against the
//! open-source one.
//!
//! Per the substitution rule in `DESIGN.md`, the LLM is replaced by
//! [`llm::SimulatedLlm`]: a seeded stochastic code-generation process
//! over each target system's component graph, with a defect taxonomy
//! (type errors, interop mismatches, simple and complex logic bugs)
//! whose rates depend on the prompting style exactly as §3.3 reports
//! (modular beats monolithic; pseudocode-first stabilises data types;
//! error-message/test-case/step-by-step prompts fix the three bug
//! classes). The *outcome* side is not simulated at all: the validation
//! layer ([`validate`]) runs the real Rust implementations of NCFlow,
//! ARROW, AP and APKeep from the sibling crates, pairing each "open
//! source prototype" configuration against the "LLM-reproduced"
//! configuration that the paper describes (LP-solver choice, ARROW
//! formulation variant, BDD engine and traversal strategy).
//!
//! Modules:
//! * [`paper`] — component-level specs of the four target systems;
//! * [`prompt`] — prompt styles, kinds and word accounting;
//! * [`llm`] — the simulated LLM;
//! * [`student`] — participant strategies (who sends what when);
//! * [`session`] — the interaction loop producing Figure 4/5 metrics;
//! * [`artifact`] — generated-prototype assembly and LoC accounting;
//! * [`validate`] — differential validation on the real systems;
//! * [`survey`] — the SIGCOMM/NSDI corpus study (Figures 1 and 2);
//! * [`framework`] — §4's unified (semi-)automatic prompt-engineering
//!   framework;
//! * [`diagnosis`] — §4's missing-detail/vulnerability classifier over
//!   validation discrepancies;
//! * [`metrics`] — serialisable experiment records;
//! * [`harness`] — the crash-safe, journaled sweep runtime over the
//!   full experiment matrix;
//! * [`pool`] — the bounded worker pool + reorder buffer that lets the
//!   sweep execute cells out of order while committing them in
//!   canonical order;
//! * [`dpv_scale`] — partitioned parallel data-plane verification over
//!   seeded fat-tree fabrics: disjoint destination chunks, one BDD
//!   manager per pool worker, canonical-order merge byte-identical to
//!   the serial verifier;
//! * [`cache`] — the deterministic memoization layer ([`cache::CellMemo`])
//!   the sweep consults for oracle-side artifacts and warm cell replays;
//!   observationally invisible by construction;
//! * [`wal`] — the write-ahead log format and its recovery policy,
//!   shared by the sweep journal and the serve daemon's ledger and
//!   job journals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod cache;
pub mod diagnosis;
pub mod dpv_scale;
pub mod fault;
pub mod framework;
pub mod harness;
pub mod llm;
pub mod metrics;
pub mod paper;
pub mod pool;
pub mod prompt;
pub mod session;
pub mod student;
pub mod survey;
pub mod validate;
pub mod wal;

pub use fault::{FaultInjector, FaultPlan, FaultProfile, ResilienceReport};
pub use harness::{Sweep, SweepConfig, SweepReport};
pub use paper::TargetSystem;
pub use session::{ReproductionSession, SessionReport};
