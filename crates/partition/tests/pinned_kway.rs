//! Pinned `kway` output: fingerprints of the partitions of one fixed,
//! seeded hub-heavy graph. Optimisations of the partitioner must keep its
//! output byte-identical; unlike the determinism tests, which only
//! compare the code with itself, this compares it with recorded values.
//!
//! The graph is built so that coarsening stops above 500 vertices, so the
//! initial phase's trials, recursive bisection and FM refinement run on a
//! large graph with uneven vertex weights before uncoarsening.

use blockpart_graph::Csr;
use blockpart_obs::{Arg, Trace};
use blockpart_partition::{kway_traced, MultilevelConfig, Partition};
use blockpart_types::ShardCount;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A ring of 1200 vertices with random chords, which coarsens well, and
/// a hub component joined to it by one edge: 12 hubs and 900 fans, each
/// fan tied heavily to one hub and lightly to two others. A hub matches
/// one fan per level, the light edges keep hubs from matching each other,
/// and fans of degree 3 escape the two-hop leaf matching, so coarsening
/// stalls once the ring has collapsed.
fn hub_heavy_graph() -> Csr {
    const RING: u32 = 1200;
    const HUBS: u32 = 12;
    const FANS: u32 = 900;
    let mut rng = SmallRng::seed_from_u64(0x0b10_c4a7);
    let mut edges = Vec::new();
    for v in 0..RING {
        edges.push((v, (v + 1) % RING, rng.gen_range(1..20u64)));
    }
    for _ in 0..RING / 4 {
        let (u, v) = (rng.gen_range(0..RING), rng.gen_range(0..RING));
        if u != v {
            edges.push((u, v, rng.gen_range(1..5u64)));
        }
    }
    for fan in 0..FANS {
        let v = RING + HUBS + fan;
        let first = rng.gen_range(0..HUBS);
        let second = (first + rng.gen_range(1..HUBS / 2)) % HUBS;
        let third = (first + HUBS / 2 + rng.gen_range(1..HUBS / 2)) % HUBS;
        edges.push((v, RING + first, rng.gen_range(50..100u64)));
        for hub in [second, third] {
            edges.push((v, RING + hub, rng.gen_range(1..4u64)));
        }
    }
    edges.push((0, RING, 10));
    Csr::from_edges((RING + HUBS + FANS) as usize, &edges)
}

/// FNV-1a over the shard labels.
fn fingerprint(p: &Partition) -> u64 {
    p.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, |h, &s| {
        (h ^ u64::from(s)).wrapping_mul(0x1000_0000_01b3)
    })
}

fn coarsen_arg(trace: &Trace, key: &str) -> u64 {
    let span = trace
        .records()
        .iter()
        .find(|r| r.name == "partition/coarsen")
        .expect("kway_traced records the coarsening span");
    match span.args.iter().find(|(k, _)| *k == key) {
        Some((_, Arg::U64(v))) => *v,
        other => panic!("coarsen span arg {key}: {other:?}"),
    }
}

#[test]
fn kway_output_is_pinned_on_a_stalling_hub_graph() {
    let csr = hub_heavy_graph();
    // recorded with the reference linear-scan FM move selection
    let pinned = [
        (2u16, 2_443_311_838_801_149_613u64),
        (4, 3_840_405_263_119_888_542),
    ];
    for (k, expected) in pinned {
        let mut trace = Trace::new();
        let p = kway_traced(
            &csr,
            ShardCount::new(k).unwrap(),
            &MultilevelConfig::default(),
            &mut trace,
        );
        let coarsest = coarsen_arg(&trace, "coarsest_vertices");
        assert!(coarsen_arg(&trace, "levels") >= 1, "k={k}: no coarsening");
        assert!(
            (500..=4096).contains(&coarsest),
            "k={k}: coarsening stopped at {coarsest} vertices"
        );
        assert_eq!(fingerprint(&p), expected, "k={k}: partition changed");
    }
}
