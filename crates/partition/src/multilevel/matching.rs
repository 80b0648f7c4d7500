//! Vertex matchings for the coarsening phase.

use blockpart_graph::Csr;

/// Computes a heavy-edge matching over `csr` (METIS's HEM).
///
/// Returns `mate` where `mate[v]` is the vertex `v` is matched with
/// (`mate[v] == v` for unmatched vertices). The relation is symmetric:
/// `mate[mate[v]] == v`. Matched pairs are either adjacent (edge
/// matching) or share a common neighbour (the two-hop phase that keeps
/// star-shaped blockchain graphs coarsening — see below).
///
/// Matching each vertex with its heaviest unmatched neighbour hides
/// heavy edges inside coarse vertices so they can never be cut, which is
/// what drives the partitioner's low dynamic edge-cut. It runs
/// *handshake rounds*: every unmatched vertex prefers its heaviest
/// unmatched neighbour — ties to the smallest id — and pairs whose
/// preferences are mutual are matched. Rounds stop at a fixed cap or
/// when one yields no mutual pair; whatever remains (preference cycles,
/// cap leftovers) is matched by a single greedy sweep in index order
/// using the same selection rule. The matching draws no randomness.
///
/// Preferences are computed once per call and then kept up to date
/// incrementally. The unmatched set only shrinks, so a preferred
/// neighbour that is still unmatched is still the heaviest one; a round
/// recomputes only the vertices whose preferred neighbour got matched.
/// Rounds walk a worklist of the unmatched vertices that still have an
/// unmatched neighbour. Mutual pairs are disjoint, so the walk order
/// does not change which pairs a round matches, and the result equals
/// that of recomputing every preference every round.
///
/// # Examples
///
/// ```
/// use blockpart_graph::Csr;
/// use blockpart_partition::multilevel::matching::match_vertices;
///
/// let csr = Csr::from_edges(4, &[(0, 1, 9), (1, 2, 1), (2, 3, 9)]);
/// let mate = match_vertices(&csr);
/// // heavy edges 0-1 and 2-3 always win over the light 1-2
/// assert_eq!(mate[0], 1);
/// assert_eq!(mate[2], 3);
/// ```
pub fn match_vertices(csr: &Csr) -> Vec<u32> {
    let n = csr.node_count();
    let mut mate: Vec<u32> = (0..n as u32).collect();
    let mut matched = vec![false; n];

    handshake_rounds(csr, &mut mate, &mut matched);

    // Second phase: two-hop matching for star-shaped regions. Blockchain
    // graphs are dominated by hubs with thousands of degree-1 leaves; edge
    // matchings can only pair one leaf per hub per level, stalling the
    // coarsening. Pair up unmatched leaves that share a neighbour instead
    // (METIS applies the same trick to power-law graphs).
    for hub in 0..n {
        let mut pending: Option<usize> = None;
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

/// Handshake rounds before falling back to one sequential greedy sweep.
/// Real graphs converge in a handful of rounds (7.7 per level on the
/// benchmark's `study-metis` chains). The cap bounds adversarial shapes,
/// such as a path with monotone weights that resolves one pair per
/// round: every round walks the remaining worklist, so the rounds cost
/// O(rounds · V) plus one preference scan, O(degree), per vertex whose
/// preferred neighbour got matched.
const MAX_HANDSHAKE_ROUNDS: usize = 16;

/// Runs deterministic heavy-edge handshake rounds, then matches whatever
/// they left (preference cycles, round-cap leftovers) with a single
/// greedy sweep in index order.
fn handshake_rounds(csr: &Csr, mate: &mut [u32], matched: &mut [bool]) {
    let n = csr.node_count();
    // `candidate[v]` is `v`'s preferred neighbour while `v` is on the
    // worklist: every unmatched vertex with an unmatched neighbour
    let mut candidate = vec![u32::MAX; n];
    let mut worklist: Vec<u32> = Vec::with_capacity(n);
    for (v, slot) in candidate.iter_mut().enumerate() {
        if let Some(u) = heaviest_free(csr, matched, v) {
            *slot = u;
            worklist.push(v as u32);
        }
    }
    for _ in 0..MAX_HANDSHAKE_ROUNDS {
        let mut progress = false;
        for &v in &worklist {
            let u = candidate[v as usize];
            // mutual preference; `v < u` so each pair matches once
            if candidate[u as usize] == v && v < u {
                pair(mate, matched, v as usize, u as usize);
                progress = true;
            }
        }
        if !progress {
            break;
        }
        // bring the preferences up to date for the next round
        worklist.retain(|&v| {
            let v = v as usize;
            if matched[v] {
                return false;
            }
            if !matched[candidate[v] as usize] {
                return true;
            }
            match heaviest_free(csr, matched, v) {
                Some(u) => {
                    candidate[v] = u;
                    true
                }
                None => false,
            }
        });
    }
    // Greedy finish: one O(E) pass picking each remaining vertex's best
    // unmatched neighbour by the same (weight, smallest-id) rule.
    for v in 0..n {
        if matched[v] {
            continue;
        }
        if let Some(u) = heaviest_free(csr, matched, v) {
            pair(mate, matched, v, u as usize);
        }
    }
}

/// `v`'s heaviest unmatched neighbour, ties to the smallest id; `None`
/// when `v` is isolated among the unmatched.
fn heaviest_free(csr: &Csr, matched: &[bool], v: usize) -> Option<u32> {
    csr.neighbors(v)
        .filter(|&(u, _)| !matched[u as usize])
        .max_by_key(|&(u, w)| (w, std::cmp::Reverse(u)))
        .map(|(u, _)| u)
}

/// Matches `a` with `b`.
fn pair(mate: &mut [u32], matched: &mut [bool], a: usize, b: usize) {
    mate[a] = b as u32;
    mate[b] = a as u32;
    matched[a] = true;
    matched[b] = true;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_valid_matching(csr: &Csr, mate: &[u32]) {
        for v in 0..csr.node_count() {
            let m = mate[v] as usize;
            assert_eq!(mate[m] as usize, v, "matching not symmetric at {v}");
            if m != v {
                let adjacent = csr.neighbors(v).any(|(u, _)| u as usize == m);
                let two_hop = csr
                    .neighbors(v)
                    .any(|(h, _)| csr.neighbors(h as usize).any(|(u, _)| u as usize == m));
                assert!(
                    adjacent || two_hop,
                    "matched vertices {v} and {m} share no neighbour"
                );
            }
        }
    }

    #[test]
    fn two_hop_phase_collapses_stars() {
        // a hub with 40 degree-1 leaves: edge matching alone pairs the hub
        // with one leaf, leaving 39 unmatched; the two-hop phase must pair
        // the rest so coarsening halves the graph.
        let edges: Vec<(u32, u32, u64)> = (1..41).map(|i| (0, i, 1)).collect();
        let csr = Csr::from_edges(41, &edges);
        let mate = match_vertices(&csr);
        assert_valid_matching(&csr, &mate);
        let unmatched = mate
            .iter()
            .enumerate()
            .filter(|&(v, &m)| v == m as usize)
            .count();
        assert!(unmatched <= 2, "star left {unmatched} unmatched vertices");
    }

    #[test]
    fn heavy_edge_prefers_heavy() {
        let csr = Csr::from_edges(4, &[(0, 1, 100), (1, 2, 1), (2, 3, 100)]);
        let mate = match_vertices(&csr);
        assert_valid_matching(&csr, &mate);
        assert_eq!(mate[0], 1);
        assert_eq!(mate[2], 3);
    }

    #[test]
    fn isolated_vertices_stay_unmatched() {
        let csr = Csr::from_edges(3, &[(0, 1, 1)]);
        let mate = match_vertices(&csr);
        assert_eq!(mate[2], 2);
        assert_valid_matching(&csr, &mate);
    }

    #[test]
    fn empty_graph() {
        let csr = Csr::from_edges(0, &[]);
        assert!(match_vertices(&csr).is_empty());
    }

    #[test]
    fn matching_halves_triangle() {
        // odd cycles leave exactly one vertex unmatched
        let csr = Csr::from_edges(3, &[(0, 1, 1), (1, 2, 1), (0, 2, 1)]);
        let mate = match_vertices(&csr);
        assert_valid_matching(&csr, &mate);
        let unmatched = mate
            .iter()
            .enumerate()
            .filter(|&(v, &m)| v == m as usize)
            .count();
        assert_eq!(unmatched, 1);
    }
}
