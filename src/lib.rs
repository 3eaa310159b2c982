//! `netrepro` — a Rust reproduction of *"Toward Reproducing Network
//! Research Results Using Large Language Models"* (Xiang et al.,
//! HotNets 2023).
//!
//! This umbrella crate re-exports the workspace's crates:
//!
//! * [`bdd`] — the ROBDD engine (JDD/JavaBDD stand-ins);
//! * [`lp`] — the LP solvers (Gurobi/PuLP stand-ins);
//! * [`graph`] — topologies, routing, traffic matrices, partitioning;
//! * [`dpv`] — the AP verifier and APKeep;
//! * [`te`] — NCFlow, ARROW and the MCF baseline;
//! * [`core`] — the paper's contribution: the LLM-assisted
//!   reproduction framework, survey pipeline and validation layer;
//! * [`analysis`] — the static defect auditor (§3.3 taxonomy without
//!   execution) and the workspace invariant linter (`repolint`);
//! * [`rps`] — the Figure 3 rock-paper-scissors client/server.
//!
//! Start with the README's quickstart, then `DESIGN.md` for the system
//! inventory and `EXPERIMENTS.md` for the paper-vs-measured record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use analysis;
pub use netrepro_bdd as bdd;
pub use netrepro_core as core;
pub use netrepro_dpv as dpv;
pub use netrepro_graph as graph;
pub use netrepro_lp as lp;
pub use netrepro_rps as rps;
pub use netrepro_te as te;
