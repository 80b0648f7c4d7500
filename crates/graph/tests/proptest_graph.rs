//! Property-based tests for the graph crate's data structures and IO.

use blockpart_graph::io::{read_trace, write_trace};
use blockpart_graph::{Csr, GraphBuilder, Interaction, InteractionLog};
use blockpart_types::{AccountKind, Address, Timestamp};
use proptest::prelude::*;

fn interaction_strategy() -> impl Strategy<Value = (u64, u64, u64, u64, bool, bool)> {
    // (time-delta, from, to, weight, from_is_contract, to_is_contract)
    (
        0u64..500,
        0u64..30,
        0u64..30,
        1u64..20,
        any::<bool>(),
        any::<bool>(),
    )
}

fn log_from(raw: Vec<(u64, u64, u64, u64, bool, bool)>) -> InteractionLog {
    let mut t = 0u64;
    let mut log = InteractionLog::new();
    for (dt, from, to, weight, fc, tc) in raw {
        t += dt;
        let kind = |c: bool| {
            if c {
                AccountKind::Contract
            } else {
                AccountKind::ExternallyOwned
            }
        };
        log.push(Interaction {
            time: Timestamp::from_secs(t),
            from: Address::from_index(from),
            to: Address::from_index(to),
            weight,
            from_kind: kind(fc),
            to_kind: kind(tc),
        });
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn trace_roundtrip_is_lossless(raw in proptest::collection::vec(interaction_strategy(), 0..150)) {
        let log = log_from(raw);
        let mut buf = Vec::new();
        write_trace(&mut buf, &log).unwrap();
        let restored = read_trace(&buf[..]).unwrap();
        prop_assert_eq!(restored.events(), log.events());
    }

    #[test]
    fn builder_weight_accounting(raw in proptest::collection::vec(interaction_strategy(), 1..150)) {
        let log = log_from(raw.clone());
        let g = InteractionLog::graph_of(log.events());

        // every interaction adds `weight` to the source; non-self-loops
        // also add it to the target
        let expected_node_weight: u64 = raw.iter()
            .map(|&(_, f, t, w, _, _)| if f == t { w } else { 2 * w })
            .sum();
        prop_assert_eq!(g.total_node_weight(), expected_node_weight);

        // edge weight excludes self-loops
        let expected_edge_weight: u64 = raw.iter()
            .filter(|&&(_, f, t, _, _, _)| f != t)
            .map(|&(_, _, _, w, _, _)| w)
            .sum();
        prop_assert_eq!(g.total_edge_weight(), expected_edge_weight);
    }

    #[test]
    fn csr_of_any_log_validates(raw in proptest::collection::vec(interaction_strategy(), 0..150)) {
        let log = log_from(raw);
        let g = InteractionLog::graph_of(log.events());
        let csr = g.to_csr();
        prop_assert!(csr.validate().is_ok());
        // symmetric view preserves undirected weight: each directed edge's
        // weight appears exactly once in the undirected total
        prop_assert_eq!(csr.total_edge_weight(), g.total_edge_weight());
    }

    #[test]
    fn window_partitions_cover_log(
        raw in proptest::collection::vec(interaction_strategy(), 1..150),
        cut1 in 0u64..100_000,
        cut2 in 0u64..100_000,
    ) {
        let log = log_from(raw);
        let (a, b) = if cut1 <= cut2 { (cut1, cut2) } else { (cut2, cut1) };
        let (ta, tb) = (Timestamp::from_secs(a), Timestamp::from_secs(b));
        let far = Timestamp::from_secs(u64::MAX);
        let n = log.window(Timestamp::EPOCH, ta).len()
            + log.window(ta, tb).len()
            + log.window(tb, far).len();
        prop_assert_eq!(n, log.len());
    }

    #[test]
    fn contract_kind_never_downgrades(raw in proptest::collection::vec(interaction_strategy(), 1..100)) {
        let log = log_from(raw.clone());
        let g = InteractionLog::graph_of(log.events());
        // if an address was ever flagged contract, the graph says contract
        for &(_, f, t, _, fc, tc) in &raw {
            for (idx, is_c) in [(f, fc), (t, tc)] {
                if is_c {
                    let node = g.node_of(Address::from_index(idx)).unwrap();
                    prop_assert!(g.kind(node).is_contract());
                }
            }
        }
    }

    #[test]
    fn builder_is_insensitive_to_weight_splitting(
        pairs in proptest::collection::vec((0u64..10, 0u64..10, 1u64..10), 1..50),
    ) {
        // adding (u, v, w) once equals adding (u, v, 1) w times
        let mut whole = GraphBuilder::new();
        let mut split = GraphBuilder::new();
        for &(u, v, w) in &pairs {
            let (a, b) = (Address::from_index(u), Address::from_index(v));
            whole.add_interaction(a, b, w);
            for _ in 0..w {
                split.add_interaction(a, b, 1);
            }
        }
        let (gw, gs) = (whole.build(), split.build());
        prop_assert_eq!(gw.total_edge_weight(), gs.total_edge_weight());
        prop_assert_eq!(gw.edge_count(), gs.edge_count());
        prop_assert_eq!(gw.total_node_weight(), gs.total_node_weight());
    }

    #[test]
    fn bfs_reaches_exactly_the_component(
        (n, edges) in (2usize..40).prop_flat_map(|n| {
            let edge = (0..n as u32, 0..n as u32, 1u64..5)
                .prop_filter("no self-loops", |(u, v, _)| u != v);
            (Just(n), proptest::collection::vec(edge, 0..80))
        }),
    ) {
        let csr = Csr::from_edges(n, &edges);
        let (labels, _) = blockpart_graph::algos::connected_components(&csr);
        let reach = blockpart_graph::algos::bfs(&csr, 0);
        let component_size = labels.iter().filter(|&&l| l == labels[0]).count();
        prop_assert_eq!(reach.len(), component_size);
    }
}
