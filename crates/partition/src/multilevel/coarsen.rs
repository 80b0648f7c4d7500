//! Graph contraction: collapse a matching into a coarser graph.

use blockpart_graph::Csr;

/// Contracts `csr` along `mate` (as produced by
/// [`match_vertices`](super::matching::match_vertices)).
///
/// Returns the coarse graph and the fine→coarse vertex map. Coarse vertex
/// weights are the sums of their constituents; edges between the two
/// endpoints of a matched pair vanish (their weight is *hidden* inside the
/// coarse vertex, protecting it from ever being cut); parallel coarse
/// edges merge by summing.
///
/// # Panics
///
/// Panics (debug builds) if `mate` is not a symmetric matching of the
/// right length.
///
/// # Examples
///
/// ```
/// use blockpart_graph::Csr;
/// use blockpart_partition::multilevel::coarsen::contract;
///
/// // path 0-1-2-3, match (0,1) and (2,3)
/// let csr = Csr::from_edges(4, &[(0, 1, 5), (1, 2, 2), (2, 3, 5)]);
/// let (coarse, map) = contract(&csr, &[1, 0, 3, 2]);
/// assert_eq!(coarse.node_count(), 2);
/// assert_eq!(coarse.edge_count(), 1); // the 1-2 edge survives with weight 2
/// assert_eq!(coarse.vertex_weight(map[0] as usize), 2);
/// ```
pub fn contract(csr: &Csr, mate: &[u32]) -> (Csr, Vec<u32>) {
    let n = csr.node_count();
    debug_assert_eq!(mate.len(), n, "matching length mismatch");

    // Assign coarse ids: the smaller endpoint of each pair is the
    // representative, visited in index order for determinism. Remember
    // each coarse vertex's representative so constituents can be walked
    // without hashing.
    let mut cmap = vec![u32::MAX; n];
    let mut reps: Vec<u32> = Vec::with_capacity(n / 2 + 1);
    for v in 0..n {
        let m = mate[v] as usize;
        debug_assert_eq!(mate[m] as usize, v, "matching must be symmetric");
        if v <= m {
            cmap[v] = reps.len() as u32;
            cmap[m] = reps.len() as u32;
            reps.push(v as u32);
        }
    }

    let coarse_n = reps.len();
    let mut vwgt = vec![0u64; coarse_n];
    for v in 0..n {
        vwgt[cmap[v] as usize] += csr.vertex_weight(v);
    }

    // Build coarse adjacency row by row with a sort-merge over the (at
    // most two) constituent neighbour lists — no per-vertex hash maps.
    let mut xadj = Vec::with_capacity(coarse_n + 1);
    let mut adjncy = Vec::with_capacity(csr.edge_count());
    let mut adjwgt = Vec::with_capacity(csr.edge_count());
    let mut scratch: Vec<(u32, u64)> = Vec::new();
    xadj.push(0);
    for (c, &rep) in reps.iter().enumerate() {
        scratch.clear();
        let rep = rep as usize;
        let partner = mate[rep] as usize;
        let c = c as u32;
        for (u, w) in csr.neighbors(rep) {
            let cu = cmap[u as usize];
            if cu != c {
                scratch.push((cu, w));
            }
        }
        if partner != rep {
            for (u, w) in csr.neighbors(partner) {
                let cu = cmap[u as usize];
                if cu != c {
                    scratch.push((cu, w));
                }
            }
        }
        scratch.sort_unstable_by_key(|&(t, _)| t);
        let mut i = 0;
        while i < scratch.len() {
            let (t, mut w) = scratch[i];
            i += 1;
            while i < scratch.len() && scratch[i].0 == t {
                w += scratch[i].1;
                i += 1;
            }
            adjncy.push(t);
            adjwgt.push(w);
        }
        xadj.push(adjncy.len());
    }
    (Csr::from_parts(xadj, adjncy, adjwgt, vwgt), cmap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multilevel::matching::match_vertices;

    #[test]
    fn preserves_total_vertex_weight() {
        let csr = Csr::from_edges(6, &[(0, 1, 3), (1, 2, 4), (3, 4, 5), (4, 5, 1)]);
        let mate = match_vertices(&csr);
        let (coarse, _) = contract(&csr, &mate);
        assert_eq!(coarse.total_vertex_weight(), csr.total_vertex_weight());
        coarse.validate().unwrap();
    }

    #[test]
    fn identity_matching_clones_graph() {
        let csr = Csr::from_edges(3, &[(0, 1, 2), (1, 2, 3)]);
        let (coarse, map) = contract(&csr, &[0, 1, 2]);
        assert_eq!(coarse.node_count(), 3);
        assert_eq!(coarse.edge_count(), 2);
        assert_eq!(map, vec![0, 1, 2]);
    }

    #[test]
    fn merges_parallel_coarse_edges() {
        // square 0-1-2-3-0; matching (0,1), (2,3) creates two coarse
        // vertices joined by two fine edges (1-2 and 3-0) that must merge.
        let csr = Csr::from_edges(4, &[(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 4)]);
        let (coarse, _) = contract(&csr, &[1, 0, 3, 2]);
        assert_eq!(coarse.node_count(), 2);
        assert_eq!(coarse.edge_count(), 1);
        assert_eq!(coarse.total_edge_weight(), 6); // 2 + 4
        coarse.validate().unwrap();
    }

    #[test]
    fn hidden_weight_is_edge_weight_of_matching() {
        let csr = Csr::from_edges(4, &[(0, 1, 5), (1, 2, 2), (2, 3, 5)]);
        let (coarse, _) = contract(&csr, &[1, 0, 3, 2]);
        // 5 + 5 hidden, 2 survives
        assert_eq!(coarse.total_edge_weight(), 2);
    }

    #[test]
    fn repeated_contraction_shrinks_to_constant() {
        let edges: Vec<(u32, u32, u64)> = (0..255).map(|i| (i, i + 1, 1)).collect();
        let mut csr = Csr::from_edges(256, &edges);
        for _ in 0..20 {
            if csr.node_count() <= 4 {
                break;
            }
            let mate = match_vertices(&csr);
            let (coarse, _) = contract(&csr, &mate);
            assert!(coarse.node_count() < csr.node_count());
            csr = coarse;
        }
        assert!(csr.node_count() <= 4, "stalled at {}", csr.node_count());
    }
}
