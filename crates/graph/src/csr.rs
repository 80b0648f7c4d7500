//! Symmetric compressed-sparse-row graphs — the partitioner input format.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A symmetric (undirected) weighted graph in compressed-sparse-row form.
///
/// This is the classic METIS input format: `xadj` offsets, `adjncy`
/// neighbour lists, `adjwgt` edge weights (each undirected edge appears in
/// both endpoint lists with the same weight) and `vwgt` vertex weights.
/// All partitioning algorithms in `blockpart-partition` consume this type.
///
/// # Examples
///
/// ```
/// use blockpart_graph::Csr;
///
/// // A path 0 - 1 - 2 with edge weights 5 and 7.
/// let csr = Csr::from_edges(3, &[(0, 1, 5), (1, 2, 7)]);
/// assert_eq!(csr.degree(1), 2);
/// assert_eq!(csr.total_edge_weight(), 12);
/// assert_eq!(csr.weighted_degree(1), 12);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Csr {
    xadj: Vec<usize>,
    adjncy: Vec<u32>,
    adjwgt: Vec<u64>,
    vwgt: Vec<u64>,
    total_vwgt: u64,
    total_adjwgt: u64,
}

impl Csr {
    /// Builds a CSR from parts. `xadj.len() == vwgt.len() + 1`,
    /// `adjncy.len() == adjwgt.len() == xadj[n]`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the invariants above are violated.
    pub fn from_parts(
        xadj: Vec<usize>,
        adjncy: Vec<u32>,
        adjwgt: Vec<u64>,
        vwgt: Vec<u64>,
    ) -> Self {
        debug_assert_eq!(xadj.len(), vwgt.len() + 1);
        debug_assert_eq!(adjncy.len(), adjwgt.len());
        debug_assert_eq!(*xadj.last().unwrap_or(&0), adjncy.len());
        let total_vwgt = vwgt.iter().sum();
        // Each undirected edge appears twice.
        let total_adjwgt: u64 = adjwgt.iter().sum::<u64>() / 2;
        Csr {
            xadj,
            adjncy,
            adjwgt,
            vwgt,
            total_vwgt,
            total_adjwgt,
        }
    }

    /// Builds a CSR from vertex weights and a flat list of half-edges
    /// `(u, v, w)`, each undirected edge listed once from each endpoint.
    /// Sorts the list by `(u, v)`, sums duplicate pairs and emits the
    /// rows: the one constructor behind [`Csr::from_edges`],
    /// [`Graph::to_csr`](crate::Graph::to_csr) and every other assembled
    /// partitioner input.
    ///
    /// # Panics
    ///
    /// Panics if a half-edge's source is `>= vwgt.len()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use blockpart_graph::Csr;
    ///
    /// // the edge {0, 1} recorded twice, each time from both endpoints
    /// let halves = vec![(1, 0, 2), (0, 1, 2), (0, 1, 3), (1, 0, 3)];
    /// let csr = Csr::from_half_edges(vec![4, 1], halves);
    /// assert_eq!(csr.neighbors(0).collect::<Vec<_>>(), vec![(1, 5)]);
    /// assert_eq!(csr.total_edge_weight(), 5);
    /// assert_eq!(csr.total_vertex_weight(), 5);
    /// ```
    pub fn from_half_edges(vwgt: Vec<u64>, mut half_edges: Vec<(u32, u32, u64)>) -> Self {
        half_edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
        half_edges.dedup_by(|next, kept| {
            let same = (next.0, next.1) == (kept.0, kept.1);
            if same {
                kept.2 += next.2;
            }
            same
        });
        let mut xadj = vec![0usize; vwgt.len() + 1];
        for &(u, _, _) in &half_edges {
            xadj[u as usize + 1] += 1;
        }
        for v in 0..vwgt.len() {
            xadj[v + 1] += xadj[v];
        }
        let adjncy = half_edges.iter().map(|&(_, v, _)| v).collect();
        let adjwgt = half_edges.iter().map(|&(_, _, w)| w).collect();
        Csr::from_parts(xadj, adjncy, adjwgt, vwgt)
    }

    /// Builds a CSR with `n` unit-weight vertices from an undirected edge
    /// list `(u, v, weight)`. Duplicate and reversed pairs merge by summing.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n` or if `u == v` (self-loops are not
    /// representable in the symmetric view).
    pub fn from_edges(n: usize, edges: &[(u32, u32, u64)]) -> Self {
        let mut half_edges = Vec::with_capacity(2 * edges.len());
        for &(u, v, w) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "endpoint out of range"
            );
            assert_ne!(u, v, "self-loops are not allowed in a symmetric CSR");
            half_edges.push((u, v, w));
            half_edges.push((v, u, w));
        }
        Csr::from_half_edges(vec![1; n], half_edges)
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Returns `true` if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.vwgt.is_empty()
    }

    /// Sum of all vertex weights.
    pub fn total_vertex_weight(&self) -> u64 {
        self.total_vwgt
    }

    /// Sum of all undirected edge weights (each edge counted once).
    pub fn total_edge_weight(&self) -> u64 {
        self.total_adjwgt
    }

    /// The weight of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn vertex_weight(&self, v: usize) -> u64 {
        self.vwgt[v]
    }

    /// All vertex weights.
    pub fn vertex_weights(&self) -> &[u64] {
        &self.vwgt
    }

    /// The unweighted degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }

    /// The sum of weights of edges incident to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn weighted_degree(&self, v: usize) -> u64 {
        self.adjwgt[self.xadj[v]..self.xadj[v + 1]].iter().sum()
    }

    /// Iterates over `(neighbor, edge_weight)` pairs of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = (u32, u64)> + '_ {
        let lo = self.xadj[v];
        let hi = self.xadj[v + 1];
        self.adjncy[lo..hi]
            .iter()
            .copied()
            .zip(self.adjwgt[lo..hi].iter().copied())
    }

    /// Iterates over each undirected edge once, as `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, u64)> + '_ {
        (0..self.node_count()).flat_map(move |u| {
            self.neighbors(u)
                .filter(move |&(v, _)| (u as u32) < v)
                .map(move |(v, w)| (u as u32, v, w))
        })
    }

    /// Checks structural invariants: symmetry of adjacency and weights,
    /// sorted neighbour lists, offset monotonicity. Intended for tests and
    /// debug assertions; cost is `O(V + E log d)`.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.node_count();
        if self.xadj.len() != n + 1 {
            return Err("xadj length mismatch".into());
        }
        for v in 0..n {
            if self.xadj[v] > self.xadj[v + 1] {
                return Err(format!("xadj not monotone at {v}"));
            }
            let mut prev: Option<u32> = None;
            for (t, w) in self.neighbors(v) {
                if (t as usize) >= n {
                    return Err(format!("neighbor {t} of {v} out of range"));
                }
                if t as usize == v {
                    return Err(format!("self-loop at {v}"));
                }
                if let Some(p) = prev {
                    if t <= p {
                        return Err(format!("unsorted adjacency at {v}"));
                    }
                }
                prev = Some(t);
                // symmetry: the reverse edge must exist with equal weight
                let found = self
                    .neighbors(t as usize)
                    .any(|(b, bw)| b as usize == v && bw == w);
                if !found {
                    return Err(format!("asymmetric edge {v} -> {t}"));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "csr({} nodes, {} edges, vwgt {}, ewgt {})",
            self.node_count(),
            self.edge_count(),
            self.total_vwgt,
            self.total_adjwgt
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_path() {
        let csr = Csr::from_edges(3, &[(0, 1, 5), (1, 2, 7)]);
        assert_eq!(csr.node_count(), 3);
        assert_eq!(csr.edge_count(), 2);
        assert_eq!(csr.total_edge_weight(), 12);
        assert_eq!(csr.degree(0), 1);
        assert_eq!(csr.degree(1), 2);
        csr.validate().unwrap();
    }

    #[test]
    fn duplicate_edges_merge() {
        let csr = Csr::from_edges(2, &[(0, 1, 1), (1, 0, 2)]);
        assert_eq!(csr.edge_count(), 1);
        assert_eq!(csr.total_edge_weight(), 3);
        csr.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let _ = Csr::from_edges(2, &[(0, 0, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let _ = Csr::from_edges(2, &[(0, 5, 1)]);
    }

    #[test]
    fn edges_iterates_each_once() {
        let csr = Csr::from_edges(4, &[(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 3, 4)]);
        let edges: Vec<_> = csr.edges().collect();
        assert_eq!(edges.len(), 4);
        let total: u64 = edges.iter().map(|&(_, _, w)| w).sum();
        assert_eq!(total, csr.total_edge_weight());
        for &(u, v, _) in &edges {
            assert!(u < v);
        }
    }

    #[test]
    fn empty_graph() {
        let csr = Csr::from_edges(0, &[]);
        assert!(csr.is_empty());
        assert_eq!(csr.edge_count(), 0);
        csr.validate().unwrap();
    }

    #[test]
    fn isolated_vertices_allowed() {
        let csr = Csr::from_edges(5, &[(0, 1, 1)]);
        assert_eq!(csr.degree(4), 0);
        assert_eq!(csr.weighted_degree(4), 0);
        csr.validate().unwrap();
    }

    #[test]
    fn display_nonempty() {
        assert!(!Csr::from_edges(1, &[]).to_string().is_empty());
    }
}
