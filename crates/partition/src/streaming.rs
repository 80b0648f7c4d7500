//! One-pass streaming partitioners: Linear Deterministic Greedy and
//! Fennel.
//!
//! The paper's methods either ignore the graph (hashing) or repartition
//! periodically (KL, METIS family). A third family the literature offers —
//! and a natural fit for blockchains, where vertices arrive one
//! transaction at a time — is *streaming* partitioning: each vertex is
//! assigned once, on arrival, using only the already-placed part of the
//! graph. These are implemented as additional baselines for the ablation
//! benchmarks:
//!
//! * [`LinearGreedy`] (LDG, Stanton & Kliot, KDD 2012): place `v` on the
//!   shard holding most of its neighbours, damped by a multiplicative
//!   `(1 − load/capacity)` penalty;
//! * [`Fennel`] (Tsourakakis et al., WSDM 2014): place `v` to maximize
//!   `|N(v) ∩ S| − α·γ·|S|^(γ−1)`, interpolating between minimizing cut
//!   and balancing load.
//!
//! Both algorithms are *one-pass by construction*: a vertex's score only
//! consults already-placed neighbours (`u < v`), read from the CSR row of
//! `v` in vertex order.

use blockpart_types::ShardCount;

use crate::partition::Partition;
use crate::traits::{PartitionRequest, Partitioner};

/// The Linear Deterministic Greedy streaming partitioner.
///
/// Vertices are visited in index order (for blockchain graphs this *is*
/// arrival order, since the builder interns vertices on first
/// appearance).
///
/// # Examples
///
/// ```
/// use blockpart_graph::Csr;
/// use blockpart_partition::{LinearGreedy, PartitionRequest, Partitioner};
/// use blockpart_types::ShardCount;
///
/// let csr = Csr::from_edges(4, &[(0, 1, 5), (2, 3, 5)]);
/// let p = LinearGreedy::new(1.0).partition(&PartitionRequest::new(&csr, ShardCount::TWO));
/// // each pair ends up co-located
/// assert_eq!(p.shard_of(0), p.shard_of(1));
/// assert_eq!(p.shard_of(2), p.shard_of(3));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct LinearGreedy {
    /// Capacity slack factor: each shard may hold up to
    /// `slack · n / k` vertices. 1.0 is the tightest feasible setting.
    slack: f64,
}

impl LinearGreedy {
    /// Creates an LDG partitioner with the given capacity slack (≥ 1.0).
    ///
    /// # Panics
    ///
    /// Panics if `slack < 1.0`.
    pub fn new(slack: f64) -> Self {
        assert!(slack >= 1.0, "capacity slack must be at least 1.0");
        LinearGreedy { slack }
    }
}

impl Default for LinearGreedy {
    fn default() -> Self {
        LinearGreedy::new(1.1)
    }
}

impl Partitioner for LinearGreedy {
    fn name(&self) -> &str {
        "ldg"
    }

    fn partition(&mut self, req: &PartitionRequest<'_>) -> Partition {
        let csr = req.csr;
        let n = csr.node_count();
        let kk = req.k.as_usize();
        let capacity = ((n as f64 / kk as f64) * self.slack).ceil().max(1.0);
        let mut assignment: Vec<u16> = Vec::with_capacity(n);
        let mut loads = vec![0usize; kk];
        let mut neigh = vec![0u64; kk];
        for v in 0..n {
            for x in neigh.iter_mut() {
                *x = 0;
            }
            for (u, w) in csr.neighbors(v) {
                let u = u as usize;
                if u < v {
                    neigh[assignment[u] as usize] += w;
                }
            }
            let mut best = 0usize;
            let mut best_score = f64::NEG_INFINITY;
            for (s, (&nw, &load)) in neigh.iter().zip(&loads).enumerate() {
                let score = (nw as f64 + 1.0) * (1.0 - load as f64 / capacity);
                if score > best_score {
                    best_score = score;
                    best = s;
                }
            }
            assignment.push(best as u16);
            loads[best] += 1;
        }
        Partition::from_assignment(assignment, req.k).expect("shards within k")
    }
}

/// The Fennel streaming partitioner.
///
/// # Examples
///
/// ```
/// use blockpart_graph::Csr;
/// use blockpart_partition::{Fennel, PartitionRequest, Partitioner};
/// use blockpart_types::ShardCount;
///
/// let edges: Vec<(u32, u32, u64)> = (0..31).map(|i| (i, i + 1, 1)).collect();
/// let csr = Csr::from_edges(32, &edges);
/// let p = Fennel::default().partition(&PartitionRequest::new(&csr, ShardCount::TWO));
/// let sizes = p.shard_sizes();
/// assert!(sizes.iter().all(|&s| s >= 8), "sizes {sizes:?}");
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Fennel {
    /// Load exponent γ (the paper's default is 1.5).
    gamma: f64,
    /// Extra weight on the balance term (scales the derived α).
    balance_pressure: f64,
}

impl Fennel {
    /// Creates a Fennel partitioner.
    ///
    /// # Panics
    ///
    /// Panics if `gamma <= 1.0` or `balance_pressure <= 0.0`.
    pub fn new(gamma: f64, balance_pressure: f64) -> Self {
        assert!(gamma > 1.0, "gamma must exceed 1");
        assert!(balance_pressure > 0.0, "balance pressure must be positive");
        Fennel {
            gamma,
            balance_pressure,
        }
    }
}

impl Default for Fennel {
    fn default() -> Self {
        Fennel::new(1.5, 1.0)
    }
}

impl Partitioner for Fennel {
    fn name(&self) -> &str {
        "fennel"
    }

    fn partition(&mut self, req: &PartitionRequest<'_>) -> Partition {
        let csr = req.csr;
        let n = csr.node_count();
        let kk = req.k.as_usize();
        if n == 0 {
            return Partition::all_on_first(0, req.k);
        }
        let m = csr.edge_count().max(1) as f64;
        // α = √k · m / n^γ, the Fennel paper's recommended setting.
        let alpha = (kk as f64).sqrt() * m / (n as f64).powf(self.gamma) * self.balance_pressure;

        let mut assignment: Vec<u16> = Vec::with_capacity(n);
        let mut loads = vec![0f64; kk];
        let mut neigh = vec![0u64; kk];
        for v in 0..n {
            for x in neigh.iter_mut() {
                *x = 0;
            }
            for (u, w) in csr.neighbors(v) {
                let u = u as usize;
                if u < v {
                    neigh[assignment[u] as usize] += w;
                }
            }
            let mut best = 0usize;
            let mut best_score = f64::NEG_INFINITY;
            for s in 0..kk {
                let marginal_cost =
                    alpha * ((loads[s] + 1.0).powf(self.gamma) - loads[s].powf(self.gamma));
                let score = neigh[s] as f64 - marginal_cost;
                if score > best_score {
                    best_score = score;
                    best = s;
                }
            }
            assignment.push(best as u16);
            loads[best] += 1.0;
        }
        Partition::from_assignment(assignment, req.k).expect("shards within k")
    }
}

/// Convenience: runs a streaming partitioner and reports whether every
/// shard received at least one vertex (a frequent failure mode of greedy
/// streams on small graphs).
pub fn covers_all_shards(partition: &Partition, k: ShardCount) -> bool {
    partition
        .shard_sizes()
        .iter()
        .take(k.as_usize())
        .all(|&s| s > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::CutMetrics;
    use blockpart_graph::Csr;

    fn k(n: u16) -> ShardCount {
        ShardCount::new(n).unwrap()
    }

    fn clique_pair() -> Csr {
        let mut edges = Vec::new();
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                edges.push((a, b, 4));
                edges.push((a + 6, b + 6, 4));
            }
        }
        edges.push((5, 6, 1));
        Csr::from_edges(12, &edges)
    }

    #[test]
    fn ldg_separates_cliques() {
        let csr = clique_pair();
        let p = LinearGreedy::default().partition(&PartitionRequest::new(&csr, k(2)));
        let m = CutMetrics::compute(&csr, &p);
        assert!(m.cut_weight <= 9, "cut weight {}", m.cut_weight);
        assert!(covers_all_shards(&p, k(2)));
    }

    #[test]
    fn fennel_separates_cliques() {
        let csr = clique_pair();
        let p = Fennel::default().partition(&PartitionRequest::new(&csr, k(2)));
        let m = CutMetrics::compute(&csr, &p);
        assert!(m.cut_weight <= 9, "cut weight {}", m.cut_weight);
        assert!(covers_all_shards(&p, k(2)));
    }

    #[test]
    fn ldg_respects_capacity() {
        // a star: greedy-without-capacity would put everything on one shard
        let edges: Vec<(u32, u32, u64)> = (1..40).map(|i| (0, i, 1)).collect();
        let csr = Csr::from_edges(40, &edges);
        let p = LinearGreedy::new(1.05).partition(&PartitionRequest::new(&csr, k(4)));
        let sizes = p.shard_sizes();
        let cap = (40.0 / 4.0 * 1.05f64).ceil() as usize;
        assert!(sizes.iter().all(|&s| s <= cap), "sizes {sizes:?} cap {cap}");
    }

    #[test]
    fn fennel_balances_better_with_pressure() {
        let edges: Vec<(u32, u32, u64)> = (1..60).map(|i| (0, i, 1)).collect();
        let csr = Csr::from_edges(60, &edges);
        let loose = Fennel::new(1.5, 0.1).partition(&PartitionRequest::new(&csr, k(4)));
        let tight = Fennel::new(1.5, 20.0).partition(&PartitionRequest::new(&csr, k(4)));
        let spread = |p: &Partition| {
            let s = p.shard_sizes();
            *s.iter().max().unwrap() - *s.iter().min().unwrap()
        };
        assert!(spread(&tight) <= spread(&loose));
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let empty = Csr::from_edges(0, &[]);
        assert!(LinearGreedy::default()
            .partition(&PartitionRequest::new(&empty, k(2)))
            .is_empty());
        assert!(Fennel::default()
            .partition(&PartitionRequest::new(&empty, k(2)))
            .is_empty());
        let single = Csr::from_edges(1, &[]);
        let p = Fennel::default().partition(&PartitionRequest::new(&single, k(8)));
        assert_eq!(p.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least 1.0")]
    fn ldg_rejects_tight_slack() {
        let _ = LinearGreedy::new(0.9);
    }

    #[test]
    #[should_panic(expected = "exceed 1")]
    fn fennel_rejects_bad_gamma() {
        let _ = Fennel::new(1.0, 1.0);
    }

    #[test]
    fn deterministic() {
        let csr = clique_pair();
        let a = Fennel::default().partition(&PartitionRequest::new(&csr, k(4)));
        let b = Fennel::default().partition(&PartitionRequest::new(&csr, k(4)));
        assert_eq!(a, b);
    }
}
