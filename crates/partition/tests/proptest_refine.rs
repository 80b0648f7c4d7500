//! Property-based tests for the multilevel machinery: matchings,
//! contraction and refinement must preserve their invariants on arbitrary
//! graphs.

use blockpart_graph::Csr;
use blockpart_partition::multilevel::coarsen::contract;
use blockpart_partition::multilevel::matching::match_vertices;
use blockpart_partition::multilevel::refine::{kway_refine, max_shard_weights};
use blockpart_partition::{CutMetrics, Partition};
use blockpart_types::{ShardCount, ShardId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn graph_strategy(max_nodes: u32) -> impl Strategy<Value = Csr> {
    (2..=max_nodes).prop_flat_map(move |n| {
        let edge = (0..n, 0..n, 1..20u64).prop_filter("no self-loops", |(u, v, _)| u != v);
        proptest::collection::vec(edge, 0..150)
            .prop_map(move |edges| Csr::from_edges(n as usize, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn heavy_edge_matchings_are_valid(csr in graph_strategy(48)) {
        let mate = match_vertices(&csr);
        prop_assert_eq!(mate.len(), csr.node_count());
        for v in 0..csr.node_count() {
            let m = mate[v] as usize;
            prop_assert_eq!(mate[m] as usize, v, "symmetry broken at {}", v);
            if m != v {
                // adjacent (edge matching) or sharing a neighbour
                // (two-hop star matching)
                let adjacent = csr.neighbors(v).any(|(u, _)| u as usize == m);
                let two_hop = csr.neighbors(v).any(|(h, _)| {
                    csr.neighbors(h as usize).any(|(u, _)| u as usize == m)
                });
                prop_assert!(
                    adjacent || two_hop,
                    "matched vertices {} and {} share no neighbour", v, m
                );
            }
        }
    }

    #[test]
    fn contraction_conserves_weights(csr in graph_strategy(48)) {
        let mate = match_vertices(&csr);
        let (coarse, cmap) = contract(&csr, &mate);
        prop_assert!(coarse.validate().is_ok());
        // vertex weight is conserved exactly
        prop_assert_eq!(coarse.total_vertex_weight(), csr.total_vertex_weight());
        // edge weight shrinks by exactly the matched (hidden) weight
        let hidden: u64 = (0..csr.node_count())
            .flat_map(|v| csr.neighbors(v).map(move |(u, w)| (v, u as usize, w)))
            .filter(|&(v, u, _)| mate[v] as usize == u && v < u)
            .map(|(_, _, w)| w)
            .sum();
        prop_assert_eq!(coarse.total_edge_weight() + hidden, csr.total_edge_weight());
        // the map is a surjection onto 0..coarse_n
        for &c in &cmap {
            prop_assert!((c as usize) < coarse.node_count());
        }
    }

    #[test]
    fn projection_preserves_cut(csr in graph_strategy(40)) {
        // a cut computed on the coarse graph equals the cut of the
        // projected partition on the fine graph (the core soundness fact
        // of multilevel partitioning)
        let mate = match_vertices(&csr);
        let (coarse, cmap) = contract(&csr, &mate);
        let k = ShardCount::TWO;
        // any coarse assignment will do: alternate
        let coarse_assignment: Vec<u16> = (0..coarse.node_count()).map(|v| (v % 2) as u16).collect();
        let coarse_part = Partition::from_assignment(coarse_assignment, k).unwrap();
        let fine_assignment: Vec<u16> =
            cmap.iter().map(|&c| coarse_part.as_slice()[c as usize]).collect();
        let fine_part = Partition::from_assignment(fine_assignment, k).unwrap();
        let coarse_cut = CutMetrics::compute(&coarse, &coarse_part).cut_weight;
        let fine_cut = CutMetrics::compute(&csr, &fine_part).cut_weight;
        prop_assert_eq!(coarse_cut, fine_cut);
    }

    #[test]
    fn refinement_never_increases_cut_or_breaks_ceilings(
        csr in graph_strategy(48),
        seed in 0u64..500,
        kk in 2u16..=6,
    ) {
        let k = ShardCount::new(kk).unwrap();
        let assignment: Vec<u16> = (0..csr.node_count()).map(|v| (v as u16) % kk).collect();
        let mut part = Partition::from_assignment(assignment, k).unwrap();
        let max = max_shard_weights(&csr, k, 1.3);
        let before_cut = CutMetrics::compute(&csr, &part).cut_weight;
        let weights_ok_before = part
            .shard_weights(csr.vertex_weights())
            .iter()
            .zip(&max)
            .all(|(w, m)| w <= m);
        let mut rng = SmallRng::seed_from_u64(seed);
        let gain = kway_refine(&csr, &mut part, &max, 8, &mut rng);
        let after_cut = CutMetrics::compute(&csr, &part).cut_weight;
        prop_assert_eq!(after_cut as i64, before_cut as i64 - gain);
        prop_assert!(gain >= 0, "refinement reported negative gain {}", gain);
        // if the start respected the ceilings, the result must too
        if weights_ok_before {
            let weights = part.shard_weights(csr.vertex_weights());
            for (w, m) in weights.iter().zip(&max) {
                prop_assert!(w <= m, "ceiling violated: {} > {}", w, m);
            }
        }
    }

    #[test]
    fn every_shard_id_is_valid_after_refinement(
        csr in graph_strategy(32),
        seed in 0u64..200,
    ) {
        let k = ShardCount::new(3).unwrap();
        let assignment: Vec<u16> = (0..csr.node_count()).map(|v| (v as u16) % 3).collect();
        let mut part = Partition::from_assignment(assignment, k).unwrap();
        let max = max_shard_weights(&csr, k, 2.0);
        let mut rng = SmallRng::seed_from_u64(seed);
        kway_refine(&csr, &mut part, &max, 4, &mut rng);
        for v in 0..csr.node_count() {
            prop_assert!(part.shard_of(v) < ShardId::new(3));
        }
    }
}
