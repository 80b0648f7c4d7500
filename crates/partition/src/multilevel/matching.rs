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
/// *handshake rounds*: every unmatched vertex computes its preferred
/// unmatched neighbour — heaviest edge, ties to the smallest id — then
/// pairs whose preferences are mutual are matched. Rounds stop at a
/// fixed cap or when one yields no mutual pair; whatever remains
/// (preference cycles, cap leftovers) is matched by a single greedy
/// sweep in index order using the same selection rule. The matching
/// draws no randomness.
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
/// Real graphs converge in a handful of rounds; the cap bounds
/// adversarial shapes (e.g. a path with monotone weights resolves one
/// pair per round) to O(rounds · E) instead of O(V · E).
const MAX_HANDSHAKE_ROUNDS: usize = 16;

/// Runs deterministic heavy-edge handshake rounds, then matches whatever
/// they left (preference cycles, round-cap leftovers) with a single
/// greedy sweep in index order.
fn handshake_rounds(csr: &Csr, mate: &mut [u32], matched: &mut [bool]) {
    let n = csr.node_count();
    let mut candidate = vec![u32::MAX; n];
    for _ in 0..MAX_HANDSHAKE_ROUNDS {
        // every preference is computed from the round's start state
        for (v, slot) in candidate.iter_mut().enumerate() {
            *slot = if matched[v] {
                u32::MAX
            } else {
                heaviest_free(csr, matched, v).unwrap_or(u32::MAX)
            };
        }
        let mut progress = false;
        for v in 0..n {
            if matched[v] || candidate[v] == u32::MAX {
                continue;
            }
            let u = candidate[v] as usize;
            // mutual preference; `v < u` so each pair matches once
            if !matched[u] && candidate[u] == v as u32 && v < u {
                pair(mate, matched, v, u);
                progress = true;
            }
        }
        if !progress {
            break;
        }
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
