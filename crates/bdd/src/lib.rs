//! `netrepro-bdd` — a reduced, ordered binary decision diagram (ROBDD)
//! engine.
//!
//! This crate is the substrate beneath the two data-plane-verification
//! systems reproduced in the HotNets'23 paper (the Atomic Predicates
//! verifier of Yang & Lam and APKeep of Zhang et al.). Both of those
//! systems spend essentially all of their time in BDD operations, and the
//! paper attributes participant D's 20× predicate-computation slowdown
//! purely to the choice of BDD library (JavaBDD vs JDD).
//!
//! To let the benchmark harness reproduce that finding, the engine exposes
//! two [`EngineProfile`]s:
//!
//! * [`EngineProfile::Cached`] — a JDD-like configuration: hash-consed
//!   unique table plus a persistent operation memo cache shared across
//!   calls.
//! * [`EngineProfile::Uncached`] — a JavaBDD-like "slower library"
//!   configuration: results are memoised only within a single operation
//!   call, so no work is shared across calls.
//!
//! Both profiles compute identical BDDs; only the constant factors differ.
//!
//! # Quick example
//!
//! ```
//! use netrepro_bdd::{BddManager, EngineProfile};
//!
//! let mut m = BddManager::new(4, EngineProfile::Cached);
//! let a = m.var(0);
//! let b = m.var(1);
//! let ab = m.and(a, b);
//! assert_eq!(m.sat_count(ab), 4.0); // 4 of 16 assignments satisfy a & b
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
mod fnv;
pub mod manager;
pub mod node;
pub mod sat;

pub use manager::{BddManager, EngineProfile};
pub use node::{Ref, FALSE, TRUE};

/// Errors produced by the BDD engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BddError {
    /// A variable index was at or above the manager's variable count.
    VariableOutOfRange {
        /// The offending variable index.
        var: u32,
        /// The manager's variable count.
        count: u32,
    },
    /// A node reference did not denote a live node.
    InvalidRef(Ref),
    /// An evaluation was given fewer assignment bits than the manager
    /// has variables. Evaluation must see every variable: a partial
    /// slice would silently read out of bounds (or, worse, panic) the
    /// first time the BDD actually branches on a missing variable.
    AssignmentTooShort {
        /// Number of assignment bits supplied.
        got: usize,
        /// Number of variables the manager requires.
        need: usize,
    },
    /// The node table outgrew the manager's configured node cap. The
    /// manager stays usable; callers absorb the fault by raising the
    /// cap (see [`BddManager::set_node_cap`]) and rebuilding, or
    /// surface this as a typed failure instead of aborting.
    TableExhausted {
        /// Allocated (non-free) nodes when the cap was crossed.
        nodes: usize,
        /// The configured cap.
        cap: usize,
    },
}

impl std::fmt::Display for BddError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BddError::VariableOutOfRange { var, count } => {
                write!(f, "variable {var} out of range (manager has {count} variables)")
            }
            BddError::InvalidRef(r) => write!(f, "invalid BDD reference {r:?}"),
            BddError::AssignmentTooShort { got, need } => {
                write!(f, "assignment has {got} bits but the manager has {need} variables")
            }
            BddError::TableExhausted { nodes, cap } => {
                write!(f, "BDD node table exhausted: {nodes} nodes exceed cap {cap}")
            }
        }
    }
}

impl std::error::Error for BddError {}
