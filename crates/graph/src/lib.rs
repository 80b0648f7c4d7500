//! Weighted directed multigraph for blockchain traces, with METIS-style CSR
//! views and the graph algorithms the partitioning study needs.
//!
//! The paper models Ethereum as a graph whose vertices are accounts and
//! contracts and whose edges are calls/transfers between them, weighted by
//! frequency. This crate provides:
//!
//! * [`GraphBuilder`] — interns [`Address`]es to dense [`NodeId`]s and
//!   accumulates weighted directed edges (parallel edges merge by summing
//!   weights, as the paper does);
//! * [`Graph`] — a frozen directed graph with vertex weights (activity) and
//!   account kinds;
//! * [`Csr`] — the symmetric compressed-sparse-row view used as partitioner
//!   input (undirected, weights of the two directions summed, self-loops
//!   dropped);
//! * [`InteractionLog`] — a time-ordered log of interactions from which
//!   cumulative or windowed graphs are built (the paper's "reduced graph");
//! * [`algos`] — BFS, connected components, degree statistics,
//!   neighbourhood extraction;
//! * [`io`] — the plain-text edge-list trace format and DOT export.
//!
//! Graphs are built by [`GraphBuilder`], directly or from a log slice by
//! [`InteractionLog::graph_of`], and symmetrized by [`Graph::to_csr`]; all
//! of it runs on the calling thread over resident data. Every symmetric
//! view, [`Graph::to_csr`] and [`Csr::from_edges`] included, comes out of
//! one constructor, [`Csr::from_half_edges`]: it sorts a flat list of
//! half-edges by `(u, v)`, sums duplicates and emits the rows, with no
//! per-row map. [`GraphBuilder::build`] merges its directed interaction
//! records the same way.
//!
//! # Examples
//!
//! ```
//! use blockpart_graph::GraphBuilder;
//! use blockpart_types::{AccountKind, Address};
//!
//! let mut b = GraphBuilder::new();
//! let a = Address::from_index(1);
//! let c = Address::from_index(2);
//! b.touch(c, AccountKind::Contract);
//! b.add_interaction(a, c, 3); // `a` called contract `c` three times
//! let g = b.build();
//! assert_eq!(g.node_count(), 2);
//! assert_eq!(g.edge_count(), 1);
//! assert_eq!(g.total_edge_weight(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algos;
mod builder;
mod csr;
mod event;
mod graph;
pub mod io;
mod node;

pub use builder::GraphBuilder;
pub use csr::Csr;
pub use event::{Interaction, InteractionLog};
pub use graph::{EdgeRef, Graph, NodeRef};
pub use node::NodeId;

pub use blockpart_types::{AccountKind, Address};
