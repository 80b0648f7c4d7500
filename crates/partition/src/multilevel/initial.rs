//! Initial partitioning of the coarsest graph: greedy graph growing
//! bisection, Fiduccia–Mattheyses-style refinement, recursive bisection.

use std::cmp::Reverse;

use blockpart_graph::Csr;
use blockpart_types::ShardCount;
use rand::rngs::SmallRng;
use rand::Rng;

use super::MultilevelConfig;
use crate::partition::Partition;

/// Produces an initial k-way partition of `csr` by recursive bisection.
///
/// Each bisection splits the target shard count `k` into `⌈k/2⌉` and
/// `⌊k/2⌋` and aims for vertex-weight targets proportional to that split,
/// so uneven `k` still comes out balanced. Each bisection runs
/// `config.init_trials` greedy-graph-growing attempts refined with an FM
/// pass and keeps the best cut.
///
/// # Examples
///
/// ```
/// use blockpart_graph::Csr;
/// use blockpart_partition::multilevel::initial::recursive_bisection;
/// use blockpart_partition::MultilevelConfig;
/// use blockpart_types::ShardCount;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let edges: Vec<(u32, u32, u64)> = (0..15).map(|i| (i, i + 1, 1)).collect();
/// let csr = Csr::from_edges(16, &edges);
/// let mut rng = SmallRng::seed_from_u64(0);
/// let p = recursive_bisection(&csr, ShardCount::new(4).unwrap(), &MultilevelConfig::default(), &mut rng);
/// assert_eq!(p.len(), 16);
/// let sizes = p.shard_sizes();
/// assert!(sizes.iter().all(|&s| s >= 2), "sizes {sizes:?}");
/// ```
pub fn recursive_bisection(
    csr: &Csr,
    k: ShardCount,
    config: &MultilevelConfig,
    rng: &mut SmallRng,
) -> Partition {
    let n = csr.node_count();
    let mut assignment = vec![0u16; n];
    let all: Vec<u32> = (0..n as u32).collect();
    split(csr, &all, k.get(), 0, &mut assignment, config, rng);
    Partition::from_assignment(assignment, k).expect("labels bounded by k")
}

fn split(
    csr: &Csr,
    verts: &[u32],
    k: u16,
    offset: u16,
    assignment: &mut [u16],
    config: &MultilevelConfig,
    rng: &mut SmallRng,
) {
    if k <= 1 || verts.is_empty() {
        for &v in verts {
            assignment[v as usize] = offset;
        }
        return;
    }
    let k0 = k.div_ceil(2);
    let k1 = k - k0;
    let total: u64 = verts.iter().map(|&v| csr.vertex_weight(v as usize)).sum();
    let target0 = total * u64::from(k0) / u64::from(k);

    let sub = Subgraph::extract(csr, verts);
    let side = best_bisection(&sub, target0, config, rng);

    let (mut side0, mut side1) = (Vec::new(), Vec::new());
    for (i, &v) in verts.iter().enumerate() {
        if side[i] == 0 {
            side0.push(v);
        } else {
            side1.push(v);
        }
    }
    split(csr, &side0, k0, offset, assignment, config, rng);
    split(csr, &side1, k1, offset + k0, assignment, config, rng);
}

/// A vertex-induced subgraph with local indices.
struct Subgraph {
    csr: Csr,
}

impl Subgraph {
    fn extract(csr: &Csr, verts: &[u32]) -> Subgraph {
        let mut local = vec![u32::MAX; csr.node_count()];
        for (i, &v) in verts.iter().enumerate() {
            local[v as usize] = i as u32;
        }
        let mut xadj = Vec::with_capacity(verts.len() + 1);
        let mut adjncy = Vec::new();
        let mut adjwgt = Vec::new();
        let mut vwgt = Vec::with_capacity(verts.len());
        xadj.push(0);
        for &v in verts {
            for (u, w) in csr.neighbors(v as usize) {
                let lu = local[u as usize];
                if lu != u32::MAX {
                    adjncy.push(lu);
                    adjwgt.push(w);
                }
            }
            vwgt.push(csr.vertex_weight(v as usize));
            xadj.push(adjncy.len());
        }
        Subgraph {
            csr: Csr::from_parts(xadj, adjncy, adjwgt, vwgt),
        }
    }
}

/// Runs `config.init_trials` GGG+FM attempts and returns the side
/// assignment (0/1 per local vertex) of the attempt with the smallest cut,
/// ties going to the smaller distance from `target0` and then to the
/// earlier attempt. Balance is never tested against `config.imbalance`
/// here: FM only moves a vertex into a side that stays within it, but an
/// attempt FM skipped, or whose grown side already overshot, still
/// competes, and a lower cut wins however unbalanced the attempt is.
fn best_bisection(
    sub: &Subgraph,
    target0: u64,
    config: &MultilevelConfig,
    rng: &mut SmallRng,
) -> Vec<u8> {
    let csr = &sub.csr;
    let n = csr.node_count();
    if n == 0 {
        return Vec::new();
    }
    let mut best: Option<(u64, u64, Vec<u8>)> = None; // (cut, balance error, side)
    let trials = config.init_trials.max(1);
    // A pass of FM costs O((V + E) log V), so this cutoff is not needed for
    // speed. It stays because lifting it would change the partitions of
    // graphs whose coarsening stalls above 4096 vertices; those are left
    // to the O(V + E) k-way refinement of the uncoarsening phase.
    let run_fm = n <= 4096;
    for _ in 0..trials {
        let mut side = grow(csr, target0, rng);
        if run_fm {
            fm_refine(csr, &mut side, target0, config.imbalance, 4);
        }
        let cut = cut_weight(csr, &side);
        let w0: u64 = (0..n)
            .filter(|&v| side[v] == 0)
            .map(|v| csr.vertex_weight(v))
            .sum();
        let err = w0.abs_diff(target0);
        let better = match &best {
            None => true,
            Some((bc, be, _)) => (cut, err) < (*bc, *be),
        };
        if better {
            best = Some((cut, err, side));
        }
    }
    best.expect("at least one trial").2
}

/// Greedy graph growing: grow side 0 from a random seed by always pulling
/// the frontier vertex with the strongest connection to the grown region,
/// until the region reaches `target0` weight.
///
/// Uses a lazy max-heap over frontier connectivity, so a full grow is
/// `O((V + E) log V)` even on the large graphs that reach initial
/// partitioning when coarsening stalls.
fn grow(csr: &Csr, target0: u64, rng: &mut SmallRng) -> Vec<u8> {
    use std::collections::BinaryHeap;
    let n = csr.node_count();
    let mut side = vec![1u8; n];
    if n == 0 || target0 == 0 {
        return side;
    }
    let mut weight0 = 0u64;
    let mut conn = vec![0u64; n];
    let mut in_region = vec![false; n];
    // lazy heap of (connection snapshot, vertex); stale entries are
    // skipped on pop
    let mut heap: BinaryHeap<(u64, usize)> = BinaryHeap::new();
    // rotating fallback cursor for disconnected graphs (amortized O(n))
    let mut scan = 0usize;

    let mut current = rng.gen_range(0..n);
    loop {
        in_region[current] = true;
        side[current] = 0;
        weight0 += csr.vertex_weight(current);
        if weight0 >= target0 {
            break;
        }
        for (u, w) in csr.neighbors(current) {
            let u = u as usize;
            if !in_region[u] {
                conn[u] += w;
                heap.push((conn[u], u));
            }
        }
        let mut next = None;
        while let Some((snapshot, v)) = heap.pop() {
            if !in_region[v] && conn[v] == snapshot {
                next = Some(v);
                break;
            }
        }
        if next.is_none() {
            // disconnected: take the next unreached vertex in index order
            while scan < n && in_region[scan] {
                scan += 1;
            }
            if scan < n {
                next = Some(scan);
            }
        }
        match next {
            Some(v) => current = v,
            None => break,
        }
    }
    side
}

/// FM-style bisection refinement with vertex weights: single-vertex moves,
/// best-prefix commit, both sides kept within `imbalance` of their target.
///
/// Returns the committed gain.
pub(crate) fn fm_refine(
    csr: &Csr,
    side: &mut [u8],
    target0: u64,
    imbalance: f64,
    max_passes: usize,
) -> i64 {
    let n = csr.node_count();
    if n < 2 {
        return 0;
    }
    let total: u64 = csr.total_vertex_weight();
    let target1 = total - target0;
    let hi0 = ((target0 as f64) * imbalance).ceil() as u64;
    let hi1 = ((target1 as f64) * imbalance).ceil() as u64;

    let mut buffers = FmBuffers::new(csr);
    let mut total_gain = 0i64;
    for _ in 0..max_passes {
        let pass_gain = fm_pass(csr, side, hi0, hi1, &mut buffers);
        if pass_gain <= 0 {
            break;
        }
        total_gain += pass_gain;
    }
    total_gain
}

/// A move candidate's rank: higher gain first, then lower vertex index.
type Rank = (i64, Reverse<u32>);

/// The rank of a locked vertex, below that of every vertex that can move.
const LOCKED: Rank = (i64::MIN, Reverse(u32::MAX));

/// A max segment tree over ranks, stored bottom-up: leaf `i` at
/// `node[len + i]`, node `j`'s children at `2j` and `2j + 1`.
#[derive(Default)]
struct MaxTree {
    node: Vec<Rank>,
}

impl MaxTree {
    fn len(&self) -> usize {
        self.node.len() / 2
    }

    /// Replaces the leaves with `leaves`.
    fn fill(&mut self, leaves: impl ExactSizeIterator<Item = Rank>) {
        let len = leaves.len();
        self.node.clear();
        self.node.reserve_exact(2 * len);
        self.node.resize(len, LOCKED);
        self.node.extend(leaves);
        for j in (1..len).rev() {
            self.node[j] = self.node[2 * j].max(self.node[2 * j + 1]);
        }
    }

    fn set(&mut self, leaf: usize, rank: Rank) {
        let mut j = self.len() + leaf;
        self.node[j] = rank;
        while j > 1 {
            j /= 2;
            self.node[j] = self.node[2 * j].max(self.node[2 * j + 1]);
        }
    }

    /// The highest rank among the first `end` leaves (`LOCKED` if none).
    fn prefix_max(&self, end: usize) -> Rank {
        let (mut lo, mut hi) = (self.len(), self.len() + end);
        let mut best = LOCKED;
        while lo < hi {
            if lo % 2 == 1 {
                best = best.max(self.node[lo]);
                lo += 1;
            }
            if hi % 2 == 1 {
                hi -= 1;
                best = best.max(self.node[hi]);
            }
            lo /= 2;
            hi /= 2;
        }
        best
    }
}

/// The buffers of [`fm_pass`], kept across the passes of one
/// [`fm_refine`] call.
///
/// A vertex can move to the other side when its weight fits that side's
/// slack, `hi[to] − weights[to]`. So each side keeps its vertices sorted
/// by (weight, index), and the movable ones form a prefix of that order,
/// found by binary search; a max tree over each side's order then gives
/// the best rank within the prefix.
struct FmBuffers {
    /// Every vertex, sorted by (weight, index).
    by_weight: Vec<u32>,
    /// Per side, the vertices on it when the pass starts, in
    /// (weight, index) order.
    order: [Vec<u32>; 2],
    /// Per side, the ranks of `order`; locked vertices rank `LOCKED`.
    tree: [MaxTree; 2],
    /// Each vertex's position in its side's `order`.
    leaf: Vec<u32>,
    gain: Vec<i64>,
    locked: Vec<bool>,
    moves: Vec<usize>,
}

impl FmBuffers {
    fn new(csr: &Csr) -> FmBuffers {
        let n = csr.node_count();
        let mut by_weight: Vec<u32> = (0..n as u32).collect();
        by_weight.sort_unstable_by_key(|&v| (csr.vertex_weight(v as usize), v));
        FmBuffers {
            by_weight,
            order: [Vec::with_capacity(n), Vec::with_capacity(n)],
            tree: Default::default(),
            leaf: vec![0; n],
            gain: Vec::with_capacity(n),
            locked: Vec::with_capacity(n),
            moves: Vec::with_capacity(n),
        }
    }
}

/// One FM pass: repeatedly moves the unlocked vertex with the highest gain
/// (lowest index on ties) whose move keeps the destination side within
/// `hi0`/`hi1`, locks it, and finally keeps the best prefix of the moves.
/// Each move costs O((1 + degree) log V).
///
/// Returns the committed gain.
fn fm_pass(csr: &Csr, side: &mut [u8], hi0: u64, hi1: u64, s: &mut FmBuffers) -> i64 {
    let n = csr.node_count();
    s.gain.clear();
    s.gain.extend((0..n).map(|v| {
        let mut g = 0i64;
        for (u, w) in csr.neighbors(v) {
            if side[u as usize] == side[v] {
                g -= w as i64;
            } else {
                g += w as i64;
            }
        }
        g
    }));
    let mut weights = [0u64, 0];
    for v in 0..n {
        weights[side[v] as usize] += csr.vertex_weight(v);
    }
    let hi = [hi0, hi1];

    for order in &mut s.order {
        order.clear();
    }
    for &v in &s.by_weight {
        let order = &mut s.order[side[v as usize] as usize];
        s.leaf[v as usize] = order.len() as u32;
        order.push(v);
    }
    for (tree, order) in s.tree.iter_mut().zip(&s.order) {
        tree.fill(order.iter().map(|&v| (s.gain[v as usize], Reverse(v))));
    }
    s.locked.clear();
    s.locked.resize(n, false);
    s.moves.clear();

    let (mut running, mut best_total, mut best_len) = (0i64, 0i64, 0usize);
    loop {
        // Best unlocked move that keeps the destination side within bound.
        let mut best = LOCKED;
        for (from, order) in s.order.iter().enumerate() {
            let to = 1 - from;
            let Some(slack) = hi[to].checked_sub(weights[to]) else {
                continue;
            };
            let fits = order.partition_point(|&v| csr.vertex_weight(v as usize) <= slack);
            best = best.max(s.tree[from].prefix_max(fits));
        }
        if best == LOCKED {
            break;
        }
        let (g, Reverse(v)) = best;
        let v = v as usize;
        let from = side[v] as usize;
        let to = 1 - from;
        weights[from] -= csr.vertex_weight(v);
        weights[to] += csr.vertex_weight(v);
        side[v] = to as u8;
        s.locked[v] = true;
        s.tree[from].set(s.leaf[v] as usize, LOCKED);
        s.moves.push(v);
        running += g;
        if running > best_total {
            best_total = running;
            best_len = s.moves.len();
        }
        for (u, w) in csr.neighbors(v) {
            let u = u as usize;
            if !s.locked[u] {
                if side[u] == side[v] {
                    s.gain[u] -= 2 * w as i64;
                } else {
                    s.gain[u] += 2 * w as i64;
                }
                s.tree[side[u] as usize].set(s.leaf[u] as usize, (s.gain[u], Reverse(u as u32)));
            }
        }
    }

    // roll back moves beyond the best prefix
    for &v in s.moves[best_len..].iter().rev() {
        side[v] = 1 - side[v];
    }
    best_total
}

/// The reference for [`fm_pass`]: the same pass, choosing each move by a
/// linear scan over all vertices, so a pass costs O(V²).
#[cfg(test)]
fn fm_pass_scan(csr: &Csr, side: &mut [u8], hi0: u64, hi1: u64) -> i64 {
    let n = csr.node_count();
    let mut gain: Vec<i64> = (0..n)
        .map(|v| {
            let mut g = 0i64;
            for (u, w) in csr.neighbors(v) {
                if side[u as usize] == side[v] {
                    g -= w as i64;
                } else {
                    g += w as i64;
                }
            }
            g
        })
        .collect();
    let mut weights = [0u64, 0];
    for v in 0..n {
        weights[side[v] as usize] += csr.vertex_weight(v);
    }
    let hi = [hi0, hi1];

    let mut locked = vec![false; n];
    let mut moves: Vec<usize> = Vec::new();
    let mut gains: Vec<i64> = Vec::new();

    for _ in 0..n {
        // Best unlocked move that keeps the destination side within bound.
        let mut best: Option<(usize, i64)> = None;
        for v in 0..n {
            if locked[v] {
                continue;
            }
            let to = 1 - side[v] as usize;
            if weights[to] + csr.vertex_weight(v) > hi[to] {
                continue;
            }
            if best.is_none_or(|(_, g)| gain[v] > g) {
                best = Some((v, gain[v]));
            }
        }
        let Some((v, g)) = best else { break };
        let from = side[v] as usize;
        let to = 1 - from;
        weights[from] -= csr.vertex_weight(v);
        weights[to] += csr.vertex_weight(v);
        side[v] = to as u8;
        locked[v] = true;
        moves.push(v);
        gains.push(g);
        for (u, w) in csr.neighbors(v) {
            let u = u as usize;
            if !locked[u] {
                if side[u] == side[v] {
                    gain[u] -= 2 * w as i64;
                } else {
                    gain[u] += 2 * w as i64;
                }
            }
        }
    }

    // best prefix
    let mut best_total = 0i64;
    let mut best_len = 0usize;
    let mut running = 0i64;
    for (i, &g) in gains.iter().enumerate() {
        running += g;
        if running > best_total {
            best_total = running;
            best_len = i + 1;
        }
    }
    // roll back moves beyond the best prefix
    for &v in moves.iter().skip(best_len).rev() {
        side[v] = 1 - side[v];
    }
    best_total
}

fn cut_weight(csr: &Csr, side: &[u8]) -> u64 {
    csr.edges()
        .filter(|&(u, v, _)| side[u as usize] != side[v as usize])
        .map(|(_, _, w)| w)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(17)
    }

    fn two_cliques() -> Csr {
        Csr::from_edges(
            8,
            &[
                (0, 1, 5),
                (0, 2, 5),
                (0, 3, 5),
                (1, 2, 5),
                (1, 3, 5),
                (2, 3, 5),
                (4, 5, 5),
                (4, 6, 5),
                (4, 7, 5),
                (5, 6, 5),
                (5, 7, 5),
                (6, 7, 5),
                (3, 4, 1),
            ],
        )
    }

    #[test]
    fn bisection_finds_bridge() {
        let csr = two_cliques();
        let p = recursive_bisection(
            &csr,
            ShardCount::TWO,
            &MultilevelConfig::default(),
            &mut rng(),
        );
        let sizes = p.shard_sizes();
        assert_eq!(sizes, vec![4, 4]);
        let cut: u64 = csr
            .edges()
            .filter(|&(u, v, _)| p.shard_of(u as usize) != p.shard_of(v as usize))
            .map(|(_, _, w)| w)
            .sum();
        assert_eq!(cut, 1);
    }

    #[test]
    fn uneven_k_gets_proportional_targets() {
        // 30 unit vertices in a path, k = 3: each part ~10
        let edges: Vec<(u32, u32, u64)> = (0..29).map(|i| (i, i + 1, 1)).collect();
        let csr = Csr::from_edges(30, &edges);
        let p = recursive_bisection(
            &csr,
            ShardCount::new(3).unwrap(),
            &MultilevelConfig::default(),
            &mut rng(),
        );
        for &s in &p.shard_sizes() {
            assert!((7..=13).contains(&s), "sizes {:?}", p.shard_sizes());
        }
    }

    #[test]
    fn weighted_vertices_balance_by_weight() {
        // one huge vertex (weight 10) + ten unit vertices in a star
        let edges: Vec<(u32, u32, u64)> = (1..11).map(|i| (0, i, 1)).collect();
        let mut vwgt = vec![1u64; 11];
        vwgt[0] = 10;
        let csr = with_weights(&Csr::from_edges(11, &edges), vwgt);
        let p = recursive_bisection(
            &csr,
            ShardCount::TWO,
            &MultilevelConfig::default(),
            &mut rng(),
        );
        let weights = p.shard_weights(csr.vertex_weights());
        // total 20, target 10 each: the big vertex should sit alone-ish
        assert!(weights.iter().all(|&w| w <= 13), "weights {weights:?}");
    }

    /// `base` with its vertex weights replaced by `vwgt`.
    fn with_weights(base: &Csr, vwgt: Vec<u64>) -> Csr {
        let n = base.node_count();
        let mut xadj = vec![0];
        for v in 0..n {
            xadj.push(xadj[v] + base.degree(v));
        }
        Csr::from_parts(
            xadj,
            (0..n)
                .flat_map(|v| base.neighbors(v).map(|(u, _)| u))
                .collect(),
            (0..n)
                .flat_map(|v| base.neighbors(v).map(|(_, w)| w))
                .collect(),
            vwgt,
        )
    }

    /// A random graph with random vertex weights (0 included), a random
    /// side per vertex, and side ceilings within 4 of half the total
    /// weight, so that one side sits at its ceiling for most of a pass.
    fn fm_case() -> impl Strategy<Value = (Csr, Vec<u8>, u64, u64)> {
        (2usize..64).prop_flat_map(|n| {
            let edge = (0..n as u32, 0..n as u32, 1u64..5)
                .prop_filter("no self-loops", |(u, v, _)| u != v);
            (
                proptest::collection::vec(edge, 0..4 * n),
                proptest::collection::vec(0u64..6, n),
                proptest::collection::vec(any::<bool>(), n),
                (0u64..9, 0u64..9),
            )
                .prop_map(move |(edges, vwgt, sides, (d0, d1))| {
                    let csr = with_weights(&Csr::from_edges(n, &edges), vwgt);
                    let half = csr.total_vertex_weight() / 2;
                    let side = sides.into_iter().map(u8::from).collect();
                    let hi = |d: u64| (half + d).saturating_sub(4);
                    (csr, side, hi(d0), hi(d1))
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn fm_pass_matches_the_linear_scan((csr, start, hi0, hi1) in fm_case()) {
            // consecutive passes share one set of buffers, as in fm_refine
            let mut buffers = FmBuffers::new(&csr);
            let (mut fast, mut scan) = (start.clone(), start);
            for _ in 0..4 {
                let gain = fm_pass(&csr, &mut fast, hi0, hi1, &mut buffers);
                prop_assert_eq!(gain, fm_pass_scan(&csr, &mut scan, hi0, hi1));
                prop_assert_eq!(&fast, &scan);
                if gain <= 0 {
                    break;
                }
            }
        }
    }

    #[test]
    fn fm_refine_improves_bad_split() {
        let csr = two_cliques();
        let mut side = vec![0u8, 1, 0, 1, 0, 1, 0, 1];
        let gain = fm_refine(&csr, &mut side, 4, 1.1, 8);
        assert!(gain > 0);
        assert_eq!(cut_weight(&csr, &side), 1);
    }

    #[test]
    fn grow_reaches_target() {
        let csr = two_cliques();
        let side = grow(&csr, 4, &mut rng());
        let w0 = side.iter().filter(|&&s| s == 0).count();
        assert!(w0 >= 4, "grew only {w0}");
    }

    #[test]
    fn handles_singleton() {
        let csr = Csr::from_edges(1, &[]);
        let p = recursive_bisection(
            &csr,
            ShardCount::TWO,
            &MultilevelConfig::default(),
            &mut rng(),
        );
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn disconnected_components_distribute() {
        let csr = Csr::from_edges(8, &[(0, 1, 1), (2, 3, 1), (4, 5, 1), (6, 7, 1)]);
        let p = recursive_bisection(
            &csr,
            ShardCount::TWO,
            &MultilevelConfig::default(),
            &mut rng(),
        );
        let sizes = p.shard_sizes();
        assert!(sizes.iter().all(|&s| s == 4), "sizes {sizes:?}");
    }
}
