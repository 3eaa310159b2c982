//! `netrepro-graph` — network topologies, routing primitives, traffic
//! matrices and graph partitioning.
//!
//! This crate supplies everything the reproduced systems assume about
//! the network itself:
//!
//! * [`digraph`] — a directed multigraph with capacities and weights;
//! * [`paths`] — BFS, Dijkstra and Yen's k-shortest paths (the tunnel
//!   generators of NCFlow/ARROW);
//! * [`maxflow`] — Dinic's max-flow (ground truth for the TE baselines);
//! * [`partition`] — seeded region-growing clustering (NCFlow's
//!   topology contraction);
//! * [`gen`] — seeded synthetic WAN generators standing in for the
//!   proprietary topologies of the paper's evaluation datasets;
//! * [`traffic`] — gravity-model and uniform traffic matrices.
//!
//! All generators take explicit seeds; a `(spec, seed)` pair fully
//! determines the instance, which is what lets `EXPERIMENTS.md` quote
//! reproducible numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cuts;
pub mod digraph;
pub mod gen;
pub mod maxflow;
pub mod partition;
pub mod paths;
pub mod traffic;

pub use digraph::{DiGraph, EdgeId, NodeId};
pub use traffic::TrafficMatrix;
