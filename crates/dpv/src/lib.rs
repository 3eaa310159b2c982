//! `netrepro-dpv` — data-plane verification: the Atomic Predicates
//! verifier (Yang & Lam, ToN 2016) and APKeep (Zhang et al., NSDI
//! 2020), the two systems reproduced by participants D and C of the
//! HotNets'23 paper.
//!
//! The crate models a network data plane as per-device longest-prefix
//! forwarding tables, encodes header spaces as BDDs
//! ([`netrepro_bdd`]), and provides:
//!
//! * [`ap`] — atomic-predicate computation: the coarsest partition of
//!   header space under which every port predicate is a union of atoms;
//! * [`reach`] — reachability verification two ways: the **selective
//!   BFS traversal** the AP authors used in their prototype, and the
//!   **path-enumeration** strategy participant D reconstructed from the
//!   paper (the source of the up-to-10⁴× latency gap in §3.2);
//! * [`apkeep`] — APKeep's incremental model: per-rule insertion and
//!   deletion identify *changes* (Algorithm 1 of the APKeep paper, the
//!   very pseudocode reproduced in the HotNets paper's Figure 6) and
//!   update the port–predicate map;
//! * [`dataset`] — seeded FIB generators over [`netrepro_graph`]
//!   topologies, standing in for the papers' router configuration
//!   datasets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acl;
pub mod ap;
pub mod apkeep;
pub mod atoms;
pub mod dataset;
pub mod fabric;
pub mod header;
pub mod network;
pub mod reach;
pub mod scale;
pub mod sim;

pub use header::{HeaderLayout, Prefix};
pub use network::{Action, Device, Network, Rule};
