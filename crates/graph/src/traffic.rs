//! Traffic-matrix generators.
//!
//! NCFlow's evaluation uses gravity-model and Poisson-ish demand
//! matrices over its WANs; ARROW's uses scaled production matrices. We
//! provide seeded gravity and uniform generators.

use crate::digraph::{DiGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense traffic matrix: `demand[s][d]` in Gbps, zero on the diagonal.
#[derive(Debug, Clone)]
pub struct TrafficMatrix {
    n: usize,
    demand: Vec<f64>,
}

impl TrafficMatrix {
    /// A zero matrix over `n` nodes.
    pub fn zeros(n: usize) -> Self {
        TrafficMatrix { n, demand: vec![0.0; n * n] }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Demand from `s` to `d`.
    pub fn get(&self, s: NodeId, d: NodeId) -> f64 {
        self.demand[s.index() * self.n + d.index()]
    }

    /// Set the demand from `s` to `d`.
    pub fn set(&mut self, s: NodeId, d: NodeId, v: f64) {
        assert!(s != d || v == 0.0, "diagonal demand must stay zero");
        self.demand[s.index() * self.n + d.index()] = v;
    }

    /// Sum of all demands.
    pub fn total(&self) -> f64 {
        self.demand.iter().sum()
    }

    /// Nonzero `(src, dst, demand)` triples, row-major order.
    pub fn commodities(&self) -> Vec<(NodeId, NodeId, f64)> {
        let mut out = Vec::new();
        for s in 0..self.n {
            for d in 0..self.n {
                let v = self.demand[s * self.n + d];
                if v > 0.0 {
                    out.push((NodeId(s as u32), NodeId(d as u32), v));
                }
            }
        }
        out
    }

    /// Multiply every demand by `f`.
    pub fn scale(&mut self, f: f64) {
        for v in &mut self.demand {
            *v *= f;
        }
    }
}

/// Gravity model: each node gets a random "mass"; demand between two
/// nodes is proportional to the product of their masses, normalised so
/// the matrix total equals `total_demand`.
pub fn gravity(g: &DiGraph, total_demand: f64, seed: u64) -> TrafficMatrix {
    let n = g.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    // Pareto-ish masses: a few heavy sites, many light ones.
    let mass: Vec<f64> = (0..n).map(|_| rng.random::<f64>().powi(2) + 0.01).collect();
    let mut tm = TrafficMatrix::zeros(n);
    let mut raw_total = 0.0;
    for s in 0..n {
        for d in 0..n {
            if s != d {
                raw_total += mass[s] * mass[d];
            }
        }
    }
    for s in 0..n {
        for d in 0..n {
            if s != d {
                let v = total_demand * mass[s] * mass[d] / raw_total;
                tm.demand[s * n + d] = v;
            }
        }
    }
    tm
}

/// Uniform model: every ordered pair gets `total_demand / (n·(n−1))`.
pub fn uniform(g: &DiGraph, total_demand: f64) -> TrafficMatrix {
    let n = g.num_nodes();
    let per = total_demand / (n * (n - 1)) as f64;
    let mut tm = TrafficMatrix::zeros(n);
    for s in 0..n {
        for d in 0..n {
            if s != d {
                tm.demand[s * n + d] = per;
            }
        }
    }
    tm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::ring;

    #[test]
    fn gravity_total_is_normalised() {
        let g = ring(8, 1.0);
        let tm = gravity(&g, 100.0, 1);
        assert!((tm.total() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn gravity_diagonal_is_zero() {
        let g = ring(8, 1.0);
        let tm = gravity(&g, 100.0, 1);
        for n in g.nodes() {
            assert_eq!(tm.get(n, n), 0.0);
        }
    }

    #[test]
    fn gravity_is_deterministic() {
        let g = ring(8, 1.0);
        let a = gravity(&g, 100.0, 5);
        let b = gravity(&g, 100.0, 5);
        assert_eq!(a.demand, b.demand);
    }

    #[test]
    fn uniform_is_even() {
        let g = ring(5, 1.0);
        let tm = uniform(&g, 20.0);
        assert!((tm.get(NodeId(0), NodeId(1)) - 1.0).abs() < 1e-12);
        assert!((tm.total() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn commodities_match_matrix() {
        let _g = ring(4, 1.0);
        let mut tm = TrafficMatrix::zeros(4);
        tm.set(NodeId(0), NodeId(2), 5.0);
        tm.set(NodeId(3), NodeId(1), 2.0);
        let c = tm.commodities();
        assert_eq!(c.len(), 2);
        assert!(c.contains(&(NodeId(0), NodeId(2), 5.0)));
        assert!(c.contains(&(NodeId(3), NodeId(1), 2.0)));
    }

    #[test]
    fn scale_multiplies() {
        let g = ring(4, 1.0);
        let mut tm = uniform(&g, 12.0);
        tm.scale(0.5);
        assert!((tm.total() - 6.0).abs() < 1e-9);
    }
}
