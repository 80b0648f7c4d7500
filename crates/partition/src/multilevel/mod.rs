//! A from-scratch multilevel k-way graph partitioner in the style of METIS
//! (Karypis & Kumar, SIAM J. Sci. Comput. 1998), which the paper uses as a
//! black box for its METIS, R-METIS and TR-METIS methods.
//!
//! The scheme has three phases:
//!
//! 1. **Coarsening** ([`matching`], [`coarsen`]) — repeatedly collapse a
//!    heavy-edge matching until the graph is small;
//! 2. **Initial partitioning** ([`initial`]) — recursive bisection on the
//!    coarsest graph using greedy graph growing plus
//!    Fiduccia–Mattheyses-style refinement;
//! 3. **Uncoarsening** ([`refine`]) — project the partition back level by
//!    level, running greedy k-way boundary refinement at each level.

pub mod coarsen;
pub mod initial;
pub mod matching;
pub mod refine;

use blockpart_graph::Csr;
use blockpart_obs::{Collector, Noop, Record};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::partition::Partition;
use crate::traits::{PartitionRequest, Partitioner};

/// Tuning parameters for [`MultilevelPartitioner`].
///
/// # Examples
///
/// ```
/// use blockpart_partition::MultilevelConfig;
///
/// let cfg = MultilevelConfig {
///     imbalance: 1.03,
///     ..MultilevelConfig::default()
/// };
/// assert!(cfg.imbalance < 1.05);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MultilevelConfig {
    /// Stop coarsening once the graph has at most
    /// `max(coarsen_to, 20 · k)` vertices.
    pub coarsen_to: usize,
    /// Allowed imbalance factor (`1.05` = shards may exceed the ideal
    /// weight by 5%).
    pub imbalance: f64,
    /// Independent greedy-graph-growing trials per bisection.
    pub init_trials: usize,
    /// Maximum k-way refinement passes per uncoarsening level.
    pub refine_passes: usize,
    /// RNG seed (growing seeds and visit orders draw from it).
    pub seed: u64,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            coarsen_to: 120,
            imbalance: 1.05,
            init_trials: 8,
            refine_passes: 8,
            seed: 0x004d_4554_4953, // "METIS"
        }
    }
}

/// The multilevel k-way partitioner.
///
/// # Examples
///
/// ```
/// use blockpart_graph::Csr;
/// use blockpart_partition::{
///     CutMetrics, MultilevelConfig, MultilevelPartitioner, PartitionRequest, Partitioner,
/// };
/// use blockpart_types::ShardCount;
///
/// // a ring of 32 vertices: a 2-way partition should cut exactly 2 edges
/// let edges: Vec<(u32, u32, u64)> = (0..32).map(|i| (i, (i + 1) % 32, 1)).collect();
/// let csr = Csr::from_edges(32, &edges);
/// let mut ml = MultilevelPartitioner::new(MultilevelConfig::default());
/// let p = ml.partition(&PartitionRequest::new(&csr, ShardCount::TWO));
/// let m = CutMetrics::compute(&csr, &p);
/// assert!(m.cut_edges <= 4); // optimal is 2; allow slight slack
/// ```
#[derive(Clone, Debug)]
pub struct MultilevelPartitioner {
    config: MultilevelConfig,
}

impl MultilevelPartitioner {
    /// Creates a partitioner with the given configuration.
    pub fn new(config: MultilevelConfig) -> Self {
        MultilevelPartitioner { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MultilevelConfig {
        &self.config
    }
}

impl Default for MultilevelPartitioner {
    fn default() -> Self {
        MultilevelPartitioner::new(MultilevelConfig::default())
    }
}

impl Partitioner for MultilevelPartitioner {
    fn name(&self) -> &str {
        "metis"
    }

    fn partition(&mut self, req: &PartitionRequest<'_>) -> Partition {
        kway(req.csr, req.k, &self.config)
    }
}

/// Runs the full multilevel k-way algorithm.
///
/// This is the library entry point behind [`MultilevelPartitioner`];
/// exposed for benchmarks that want to sweep configurations without the
/// trait indirection.
pub fn kway(csr: &Csr, k: blockpart_types::ShardCount, config: &MultilevelConfig) -> Partition {
    kway_traced(csr, k, config, &mut Noop)
}

/// [`kway`] with instrumentation: records wall-clock `detail` spans for
/// the three phases (`partition/coarsen`, `partition/initial`,
/// `partition/refine`) into `obs`. The collector never influences the
/// partition — `kway` is this with a no-op collector.
pub fn kway_traced<C: Collector>(
    csr: &Csr,
    k: blockpart_types::ShardCount,
    config: &MultilevelConfig,
    obs: &mut C,
) -> Partition {
    let n = csr.node_count();
    if n == 0 {
        return Partition::all_on_first(0, k);
    }
    if k.get() == 1 {
        return Partition::all_on_first(n, k);
    }

    let mut rng = SmallRng::seed_from_u64(config.seed);

    // The paper feeds METIS edge weights (to avoid cutting hot edges)
    // but balances on vertex *counts* — which is exactly why METIS shows
    // dynamic imbalance near 2 after the 2016 dummy-account attack.
    let base = rebuild_with_unit_weights(csr);

    // ---- Phase 1: coarsening -------------------------------------------
    let coarsen_start = obs.now_us();
    let stop_at = config.coarsen_to.max(20 * k.as_usize());
    let mut levels: Vec<(Csr, Vec<u32>)> = Vec::new(); // (fine graph, fine->coarse map)
    let mut current = base;
    while current.node_count() > stop_at {
        let matching = matching::match_vertices(&current);
        let (coarse, map) = coarsen::contract(&current, &matching);
        // Stop when coarsening stalls (highly connected graphs).
        if coarse.node_count() as f64 > current.node_count() as f64 * 0.95 {
            break;
        }
        levels.push((current, map));
        current = coarse;
    }
    if obs.enabled() {
        let dur = obs.now_us() - coarsen_start;
        obs.record(
            Record::span(coarsen_start, dur, "detail", "partition/coarsen")
                .with_arg("levels", levels.len())
                .with_arg("coarsest_vertices", current.node_count()),
        );
    }

    // ---- Phase 2: initial partitioning on the coarsest graph ------------
    let initial_start = obs.now_us();
    let mut part = initial::recursive_bisection(&current, k, config, &mut rng);
    let max_weights = refine::max_shard_weights(&current, k, config.imbalance);
    refine::kway_refine(
        &current,
        &mut part,
        &max_weights,
        config.refine_passes,
        &mut rng,
    );
    if obs.enabled() {
        let dur = obs.now_us() - initial_start;
        obs.record(Record::span(
            initial_start,
            dur,
            "detail",
            "partition/initial",
        ));
    }

    // ---- Phase 3: uncoarsening + refinement ------------------------------
    let refine_start = obs.now_us();
    for (fine, map) in levels.into_iter().rev() {
        let mut fine_assignment = vec![0u16; fine.node_count()];
        for (v, &c) in map.iter().enumerate() {
            fine_assignment[v] = part.as_slice()[c as usize];
        }
        part = Partition::from_assignment(fine_assignment, k)
            .expect("projected assignment stays within k");
        let max_weights = refine::max_shard_weights(&fine, k, config.imbalance);
        refine::kway_refine(
            &fine,
            &mut part,
            &max_weights,
            config.refine_passes,
            &mut rng,
        );
    }
    if obs.enabled() {
        let dur = obs.now_us() - refine_start;
        obs.record(Record::span(
            refine_start,
            dur,
            "detail",
            "partition/refine",
        ));
    }

    part
}

fn rebuild_with_unit_weights(csr: &Csr) -> Csr {
    let n = csr.node_count();
    let mut xadj = Vec::with_capacity(n + 1);
    let mut adjncy = Vec::new();
    let mut adjwgt = Vec::new();
    xadj.push(0);
    for v in 0..n {
        for (u, w) in csr.neighbors(v) {
            adjncy.push(u);
            adjwgt.push(w);
        }
        xadj.push(adjncy.len());
    }
    Csr::from_parts(xadj, adjncy, adjwgt, vec![1; n])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::CutMetrics;
    use blockpart_types::ShardCount;
    use rand::Rng;

    fn k(n: u16) -> ShardCount {
        ShardCount::new(n).unwrap()
    }

    /// A graph of `c` cliques of size `s`, ring-connected by light bridges.
    fn clique_ring(c: usize, s: usize) -> Csr {
        let mut edges = Vec::new();
        for ci in 0..c {
            let base = (ci * s) as u32;
            for a in 0..s as u32 {
                for b in (a + 1)..s as u32 {
                    edges.push((base + a, base + b, 10));
                }
            }
            let next = (((ci + 1) % c) * s) as u32;
            edges.push((base, next, 1));
        }
        Csr::from_edges(c * s, &edges)
    }

    #[test]
    fn bisects_clique_ring_cleanly() {
        let csr = clique_ring(8, 6); // 48 vertices
        let p = kway(&csr, k(2), &MultilevelConfig::default());
        let m = CutMetrics::compute(&csr, &p);
        // Optimal cut severs 2 bridges (weight 2 of 8 bridge weight +
        // clique weight). Require we never cut clique-internal edges.
        assert!(m.cut_weight <= 4, "cut weight {}", m.cut_weight);
        assert!(m.static_balance <= 1.10, "balance {}", m.static_balance);
    }

    #[test]
    fn kway_partitions_respect_imbalance() {
        let csr = clique_ring(16, 5); // 80 vertices
        for kk in [2u16, 4, 8] {
            let p = kway(&csr, k(kk), &MultilevelConfig::default());
            let m = CutMetrics::compute(&csr, &p);
            assert!(
                m.static_balance <= 1.35,
                "k={kk} balance {}",
                m.static_balance
            );
            assert!(
                m.dynamic_edge_cut < 0.5,
                "k={kk} cut {}",
                m.dynamic_edge_cut
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let csr = clique_ring(6, 5);
        let cfg = MultilevelConfig::default();
        assert_eq!(kway(&csr, k(4), &cfg), kway(&csr, k(4), &cfg));
        let cfg2 = MultilevelConfig { seed: 99, ..cfg };
        // different seed may give a different (but still valid) partition
        let p2 = kway(&csr, k(4), &cfg2);
        assert_eq!(p2.len(), 30);
    }

    #[test]
    fn handles_edge_cases() {
        // empty
        let empty = Csr::from_edges(0, &[]);
        assert!(kway(&empty, k(2), &MultilevelConfig::default()).is_empty());
        // k = 1
        let csr = clique_ring(2, 3);
        let p = kway(&csr, k(1), &MultilevelConfig::default());
        assert_eq!(CutMetrics::compute(&csr, &p).cut_edges, 0);
        // fewer vertices than shards
        let tiny = Csr::from_edges(2, &[(0, 1, 1)]);
        let p = kway(&tiny, k(8), &MultilevelConfig::default());
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn handles_disconnected_graph() {
        let csr = Csr::from_edges(10, &[(0, 1, 1), (2, 3, 1), (4, 5, 1)]);
        let p = kway(&csr, k(2), &MultilevelConfig::default());
        assert_eq!(p.len(), 10);
        let m = CutMetrics::compute(&csr, &p);
        assert!(m.static_balance <= 1.5);
    }

    #[test]
    fn scales_to_larger_random_graphs() {
        // power-law-ish random graph, 4000 vertices
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 4000u32;
        let mut edges = Vec::new();
        for v in 1..n {
            // preferential-attachment-flavoured: attach to a random earlier
            // vertex, biased to small indices
            let t = rng.gen_range(0..v);
            let t = t / 2;
            edges.push((v, if t == v { v - 1 } else { t }, 1 + (v % 5) as u64));
        }
        let csr = Csr::from_edges(n as usize, &edges);
        let p = kway(&csr, k(8), &MultilevelConfig::default());
        let m = CutMetrics::compute(&csr, &p);
        assert!(m.static_balance <= 1.30, "balance {}", m.static_balance);
        assert_eq!(p.len(), n as usize);
    }
}
