//! Property-based tests (proptest) over the core data structures and
//! partitioning invariants.

use std::collections::BTreeMap;

use blockpart::graph::{Csr, GraphBuilder, Interaction, InteractionLog};
use blockpart::partition::multilevel::matching::match_vertices;
use blockpart::partition::{
    CutMetrics, DistributedKl, HashPartitioner, MultilevelConfig, MultilevelPartitioner, Partition,
    PartitionRequest, Partitioner,
};
use blockpart::shard::ShardedState;
use blockpart::types::{mix64, AccountKind, Address, ShardCount, ShardId, Timestamp};
use proptest::prelude::*;

/// Random undirected edge lists over up to 64 vertices.
fn edges_strategy(max_nodes: u32) -> impl Strategy<Value = (usize, Vec<(u32, u32, u64)>)> {
    (2..=max_nodes).prop_flat_map(move |n| {
        let edge = (0..n, 0..n, 1..50u64)
            .prop_filter("no self-loops", |(u, v, _)| u != v)
            .prop_map(|(u, v, w)| (u, v, w));
        (Just(n as usize), proptest::collection::vec(edge, 0..200))
    })
}

/// Random directed edge lists over few vertices, so parallel and
/// reversed pairs are common; zero weights included.
fn directed_edges() -> impl Strategy<Value = (usize, Vec<(u32, u32, u64)>)> {
    (2..=16u32).prop_flat_map(|n| {
        let edge = (0..n, 0..n, 0..20u64).prop_filter("no self-loops", |(u, v, _)| u != v);
        (Just(n as usize), proptest::collection::vec(edge, 0..120))
    })
}

/// The reference symmetrization: one ordered map per row, each directed
/// edge adding its weight to both endpoint rows.
fn reference_csr(vwgt: Vec<u64>, directed: impl IntoIterator<Item = (u32, u32, u64)>) -> Csr {
    let mut rows: Vec<BTreeMap<u32, u64>> = vec![BTreeMap::new(); vwgt.len()];
    for (u, v, w) in directed {
        *rows[u as usize].entry(v).or_insert(0) += w;
        *rows[v as usize].entry(u).or_insert(0) += w;
    }
    let mut xadj = vec![0];
    let (mut adjncy, mut adjwgt) = (Vec::new(), Vec::new());
    for row in rows {
        for (t, w) in row {
            adjncy.push(t);
            adjwgt.push(w);
        }
        xadj.push(adjncy.len());
    }
    Csr::from_parts(xadj, adjncy, adjwgt, vwgt)
}

/// Random `ShardedState` histories over 12 addresses: `(op, a, b, shard,
/// weight)` where op 0 inserts `a`, op 1 records an edge `a`–`b`
/// (inserting missing endpoints; `a == b` is a self-loop) and op 2 moves
/// `a`.
fn state_ops() -> impl Strategy<Value = Vec<(u16, u64, u64, u16, u64)>> {
    proptest::collection::vec((0..3u16, 0..12u64, 0..12u64, 0..4u16, 1..20u64), 0..150)
}

/// Graphs that stress the handshake rounds, drawn from `seed`:
/// - shape 0: up to 64 vertices with weights in 1..=3, so preferences tie;
/// - shape 1: 1–4 hubs with 100–499 leaves each tied to one to three hubs
///   or to a leaf, which leaves most leaves unmatched after the rounds;
/// - shape 2: a path of 34–93 vertices under a random labelling whose
///   weights rise along it, so each round matches one pair and the
///   rounds hit their cap.
fn matching_graph() -> impl Strategy<Value = Csr> {
    (0..3u32, 0..400u32, any::<u64>()).prop_map(|(shape, size, seed)| {
        let mut draws = 0u64;
        let mut draw = |bound: u64| {
            draws += 1;
            mix64(seed ^ draws) % bound
        };
        let mut edges = Vec::new();
        let n = match shape {
            0 => {
                let n = 2 + size % 63;
                for _ in 0..draw(4 * u64::from(n)) {
                    let (u, v) = (draw(n.into()) as u32, draw(n.into()) as u32);
                    if u != v {
                        edges.push((u, v, 1 + draw(3)));
                    }
                }
                n
            }
            1 => {
                let hubs = 1 + draw(4) as u32;
                let n = hubs + 100 + size;
                for a in 0..hubs {
                    for b in a + 1..hubs {
                        edges.push((a, b, 1 + draw(5)));
                    }
                }
                for leaf in hubs..n {
                    for _ in 0..1 + draw(3) {
                        edges.push((leaf, draw(hubs.into()) as u32, 1 + draw(4)));
                    }
                    if draw(8) == 0 {
                        let other = hubs + draw(u64::from(n - hubs)) as u32;
                        if other != leaf {
                            edges.push((leaf, other, 1 + draw(4)));
                        }
                    }
                }
                n
            }
            _ => {
                let n = 34 + size % 60;
                let mut label: Vec<u32> = (0..n).collect();
                label.sort_by_key(|&v| mix64(seed ^ u64::from(v)));
                for i in 0..n - 1 {
                    edges.push((label[i as usize], label[i as usize + 1], u64::from(i) + 1));
                }
                n
            }
        };
        Csr::from_edges(n as usize, &edges)
    })
}

/// The reference for `match_vertices`: every handshake round recomputes
/// every unmatched vertex's preferred neighbour in full, then the
/// same greedy finish and two-hop leaf phase run.
fn reference_matching(csr: &Csr) -> Vec<u32> {
    const ROUNDS: usize = 16;
    let n = csr.node_count();
    let mut mate: Vec<u32> = (0..n as u32).collect();
    let mut matched = vec![false; n];
    let heaviest_free = |matched: &[bool], v: usize| {
        csr.neighbors(v)
            .filter(|&(u, _)| !matched[u as usize])
            .max_by_key(|&(u, w)| (w, std::cmp::Reverse(u)))
            .map(|(u, _)| u as usize)
    };
    let pair = |mate: &mut [u32], matched: &mut [bool], a: usize, b: usize| {
        mate[a] = b as u32;
        mate[b] = a as u32;
        matched[a] = true;
        matched[b] = true;
    };
    for _ in 0..ROUNDS {
        let candidate: Vec<Option<usize>> = (0..n)
            .map(|v| heaviest_free(&matched, v).filter(|_| !matched[v]))
            .collect();
        let mut progress = false;
        for v in 0..n {
            if let Some(u) = candidate[v] {
                if !matched[v] && !matched[u] && candidate[u] == Some(v) && v < u {
                    pair(&mut mate, &mut matched, v, u);
                    progress = true;
                }
            }
        }
        if !progress {
            break;
        }
    }
    for v in 0..n {
        if !matched[v] {
            if let Some(u) = heaviest_free(&matched, v) {
                pair(&mut mate, &mut matched, v, u);
            }
        }
    }
    for hub in 0..n {
        let mut pending = None;
        for (u, _) in csr.neighbors(hub) {
            let u = u as usize;
            if matched[u] || csr.degree(u) > 2 {
                continue;
            }
            match pending.take() {
                None => pending = Some(u),
                Some(prev) => pair(&mut mate, &mut matched, prev, u),
            }
        }
    }
    mate
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(240))]

    #[test]
    fn handshake_matching_matches_full_recomputation(csr in matching_graph()) {
        prop_assert_eq!(match_vertices(&csr), reference_matching(&csr));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_constructors_match_reference_symmetrization(
        (n, edges) in directed_edges(),
        idle in 0..4u64,
    ) {
        // parallel and reversed copies of a prefix, on top of the chance ones
        let mut edges = edges;
        let extra: Vec<_> = edges.iter().take(8).flat_map(|&(u, v, w)| [(u, v, w), (v, u, w + 1)]).collect();
        edges.extend(extra);

        let from_edges = Csr::from_edges(n, &edges);
        prop_assert_eq!(&from_edges, &reference_csr(vec![1; n], edges.iter().copied()));

        let mut b = GraphBuilder::new();
        for &(u, v, w) in &edges {
            b.add_interaction(Address::from_index(u as u64), Address::from_index(v as u64), w);
        }
        // vertices without activity get weight 1
        for i in 0..idle {
            b.touch(Address::from_index(100 + i), AccountKind::ExternallyOwned);
        }
        let g = b.build();
        let vwgt = g.nodes().map(|v| v.weight.max(1)).collect();
        let directed = g.edges().map(|e| (e.source.as_u32(), e.target.as_u32(), e.weight));
        prop_assert_eq!(&g.to_csr(), &reference_csr(vwgt, directed));
    }

    #[test]
    fn sharded_state_bookkeeping_matches_its_full_graph(
        ops in state_ops(),
        kk in 1u16..=4,
    ) {
        let k = ShardCount::new(kk).unwrap();
        let mut st = ShardedState::new(k);
        let addr = Address::from_index;
        for (op, a, b, shard, w) in ops {
            let shard = ShardId::new(shard % kk);
            let ensure = |st: &mut ShardedState, x: u64| {
                if !st.contains(addr(x)) {
                    st.insert_vertex(addr(x), AccountKind::ExternallyOwned, shard);
                }
            };
            match op {
                0 => ensure(&mut st, a),
                1 => {
                    ensure(&mut st, a);
                    ensure(&mut st, b);
                    st.record_edge(addr(a), addr(b), w);
                }
                _ => {
                    if st.contains(addr(a)) {
                        st.move_vertex(addr(a), shard);
                    }
                }
            }
        }
        // `full_graph` weighs an idle vertex 1: a self-loop gives each
        // one activity, so the dynamic balances compare too
        for i in 0..12 {
            if st.contains(addr(i)) && st.activity_of(addr(i)) == 0 {
                st.record_edge(addr(i), addr(i), 1);
            }
        }

        let (csr, order, _ids, part) = st.full_graph();
        prop_assert!(csr.validate().is_ok());
        prop_assert_eq!(csr.edge_count(), st.edge_count());
        let m = CutMetrics::compute(&csr, &part);
        prop_assert_eq!(m.static_edge_cut, st.static_edge_cut());
        prop_assert_eq!(m.dynamic_edge_cut, st.dynamic_edge_cut());
        prop_assert_eq!(m.static_balance, st.static_balance());
        prop_assert_eq!(m.dynamic_balance, st.dynamic_balance());

        let map = st.assignment_map();
        prop_assert_eq!(map.len(), st.vertex_count());
        for (i, &a) in order.iter().enumerate() {
            prop_assert_eq!(st.shard_of(a), Some(part.shard_of(i)));
            prop_assert_eq!(map.get(&a).copied(), st.shard_of(a));
        }
    }

    #[test]
    fn csr_from_edges_is_always_valid((n, edges) in edges_strategy(64)) {
        let csr = Csr::from_edges(n, &edges);
        prop_assert!(csr.validate().is_ok());
        // total edge weight equals the sum of the input weights
        let total: u64 = edges.iter().map(|&(_, _, w)| w).sum();
        prop_assert_eq!(csr.total_edge_weight(), total);
    }

    #[test]
    fn graph_to_csr_preserves_weight((n, edges) in edges_strategy(48)) {
        let mut b = GraphBuilder::new();
        for &(u, v, w) in &edges {
            b.add_interaction(Address::from_index(u as u64), Address::from_index(v as u64), w);
        }
        let g = b.build();
        let csr = g.to_csr();
        prop_assert!(csr.validate().is_ok());
        prop_assert_eq!(csr.total_edge_weight(), g.total_edge_weight());
        prop_assert!(csr.node_count() <= n);
    }

    #[test]
    fn multilevel_partition_is_total_and_bounded(
        (n, edges) in edges_strategy(64),
        kk in 2u16..=8,
        seed in 0u64..1000,
    ) {
        let csr = Csr::from_edges(n, &edges);
        let k = ShardCount::new(kk).unwrap();
        let cfg = MultilevelConfig { seed, ..MultilevelConfig::default() };
        let part = MultilevelPartitioner::new(cfg)
            .partition(&PartitionRequest::new(&csr, k));
        prop_assert_eq!(part.len(), n);
        for v in 0..n {
            prop_assert!(k.contains(part.shard_of(v)));
        }
        let m = CutMetrics::compute(&csr, &part);
        prop_assert!((0.0..=1.0).contains(&m.static_edge_cut));
        prop_assert!((0.0..=1.0).contains(&m.dynamic_edge_cut));
        prop_assert!(m.static_balance >= 1.0 - 1e-9);
        prop_assert!(m.static_balance <= kk as f64 + 1e-9);
    }

    #[test]
    fn hash_partition_is_deterministic_and_id_stable(
        (n, edges) in edges_strategy(32),
        ids in proptest::collection::vec(proptest::num::u64::ANY, 32),
    ) {
        let csr = Csr::from_edges(n, &edges);
        let ids = &ids[..n];
        let k = ShardCount::new(4).unwrap();
        let req = PartitionRequest::new(&csr, k).with_stable_ids(ids);
        let p1 = HashPartitioner::new().partition(&req);
        let p2 = HashPartitioner::new().partition(&req);
        prop_assert_eq!(&p1, &p2);
        // shard depends only on the id, not the vertex position
        for (v, &id) in ids.iter().enumerate() {
            prop_assert_eq!(p1.shard_of(v), HashPartitioner::shard_for_id(id, k));
        }
    }

    #[test]
    fn distributed_kl_never_worsens_given_previous(
        (n, edges) in edges_strategy(48),
        seed in 0u64..100,
    ) {
        let csr = Csr::from_edges(n, &edges);
        let k = ShardCount::TWO;
        // previous = hash partition
        let base_req = PartitionRequest::new(&csr, k);
        let prev = HashPartitioner::new().partition(&base_req);
        let before = CutMetrics::compute(&csr, &prev).cut_weight;
        let req = PartitionRequest::new(&csr, k).with_previous(&prev);
        let part = DistributedKl::with_seed(seed).partition(&req);
        let after = CutMetrics::compute(&csr, &part).cut_weight;
        // KL is a heuristic: it should rarely be much worse; assert the
        // invariant it guarantees — validity — plus a generous bound.
        prop_assert_eq!(part.len(), n);
        prop_assert!(after <= before + csr.total_edge_weight() / 4,
            "kl degraded cut badly: {} -> {}", before, after);
    }

    #[test]
    fn moves_metric_is_consistent(
        a in proptest::collection::vec(0u16..4, 1..100),
        flips in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let k = ShardCount::new(4).unwrap();
        let n = a.len().min(flips.len());
        let a = &a[..n];
        let b: Vec<u16> = a.iter().zip(&flips[..n])
            .map(|(&s, &f)| if f { (s + 1) % 4 } else { s })
            .collect();
        let pa = Partition::from_assignment(a.to_vec(), k).unwrap();
        let pb = Partition::from_assignment(b.clone(), k).unwrap();
        let expected = flips[..n].iter().filter(|&&f| f).count();
        prop_assert_eq!(pb.moves_from(&pa), expected);
        prop_assert_eq!(pa.moves_from(&pb), expected); // symmetric for equal lengths
        prop_assert_eq!(pa.moves_from(&pa), 0);
    }

    #[test]
    fn interaction_log_window_graphs_are_consistent(
        times in proptest::collection::vec(0u64..10_000, 1..200),
    ) {
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let log: InteractionLog = sorted.iter().enumerate().map(|(i, &t)| {
            Interaction::new(
                Timestamp::from_secs(t),
                Address::from_index(i as u64 % 10),
                Address::from_index((i as u64 + 1) % 10),
            )
        }).collect();
        // the union of two adjacent windows covers the same events as the
        // enclosing window
        let mid = Timestamp::from_secs(5_000);
        let lo = log.window(Timestamp::EPOCH, mid).len();
        let hi = log.window(mid, Timestamp::from_secs(10_001)).len();
        prop_assert_eq!(lo + hi, log.len());
        // cumulative graph edge weight equals event count (unit weights)
        let g = log.graph_until(Timestamp::from_secs(10_001));
        let self_loops = sorted.len() - g.total_edge_weight() as usize;
        prop_assert!(self_loops == 0 || g.total_edge_weight() < sorted.len() as u64);
    }
}
