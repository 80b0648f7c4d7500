//! Graph partitioning algorithms for the blockchain sharding study.
//!
//! Implements the five methods evaluated by Fynn & Pedone (DSN 2018):
//!
//! * [`HashPartitioner`] — `hash(vertex id) mod k`;
//! * [`kl`] — the paper's *distributed* Kernighan–Lin variant
//!   ([`DistributedKl`]) in which shards propose gain-positive vertices
//!   and an oracle computes a k×k move-probability matrix that keeps
//!   shards balanced;
//! * [`MultilevelPartitioner`] — a from-scratch METIS-style multilevel
//!   k-way partitioner (heavy-edge matching coarsening, greedy-graph-growing
//!   recursive bisection, Fiduccia–Mattheyses boundary refinement). The
//!   METIS, R-METIS and TR-METIS methods of the paper all use this
//!   partitioner on different input graphs.
//!
//! All algorithms consume the symmetric [`Csr`] view from
//! [`blockpart_graph`] and produce a [`Partition`], from which the paper's
//! metrics (Eqs. 1–2: static/dynamic edge-cut and balance) are computed via
//! [`CutMetrics`].
//!
//! # Examples
//!
//! ```
//! use blockpart_graph::Csr;
//! use blockpart_partition::{
//!     CutMetrics, MultilevelConfig, MultilevelPartitioner, PartitionRequest, Partitioner,
//! };
//! use blockpart_types::ShardCount;
//!
//! // Two triangles joined by a single light edge: the obvious bisection
//! // cuts only the bridge.
//! let csr = Csr::from_edges(
//!     6,
//!     &[
//!         (0, 1, 10), (1, 2, 10), (0, 2, 10),
//!         (3, 4, 10), (4, 5, 10), (3, 5, 10),
//!         (2, 3, 1), // bridge
//!     ],
//! );
//! let mut ml = MultilevelPartitioner::new(MultilevelConfig::default());
//! let part = ml.partition(&PartitionRequest::new(&csr, ShardCount::TWO));
//! let m = CutMetrics::compute(&csr, &part);
//! assert_eq!(m.cut_edges, 1);
//! assert!(m.static_balance <= 1.0 + 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hashing;
pub mod kl;
mod metrics;
pub mod multilevel;
mod partition;
pub mod streaming;
mod traits;

pub use hashing::HashPartitioner;
pub use kl::DistributedKl;
pub use metrics::CutMetrics;
pub use multilevel::{kway, kway_traced, MultilevelConfig, MultilevelPartitioner};
pub use partition::Partition;
pub use streaming::{Fennel, LinearGreedy};
pub use traits::{PartitionRequest, Partitioner};

pub use blockpart_graph::Csr;
pub use blockpart_types::{ShardCount, ShardId};
