//! The sharding simulator: streams a blockchain interaction log through a
//! sharded system, places new vertices, triggers repartitions and records
//! the paper's metrics per measurement window.
//!
//! The five methods of the paper map onto simulator configurations:
//!
//! | method    | partitioner           | placement | policy               | scope  |
//! |-----------|-----------------------|-----------|----------------------|--------|
//! | HASH      | [`HashPartitioner`]   | `Hash`    | `Never`              | —      |
//! | KL        | [`DistributedKl`]     | `Hash`    | `Periodic` (2 weeks) | `Full` |
//! | METIS     | [`MultilevelPartitioner`] | `MinCut` | `Periodic`        | `Full` |
//! | R-METIS   | [`MultilevelPartitioner`] | `MinCut` | `Periodic`        | `Window` (2 weeks) |
//! | TR-METIS  | [`MultilevelPartitioner`] | `MinCut` | `Threshold`       | `Window` |
//!
//! Every partitioner input is assembled one way. [`ShardedState`] interns
//! each address once, when it enters, and keeps shard, kind, activity and
//! adjacency in vectors indexed by that dense id; its cumulative graph
//! and every reduced graph come out of
//! [`Csr::from_half_edges`](blockpart_graph::Csr::from_half_edges). The
//! offline `Window` scope and the live [`WindowedGraph`] share one
//! reduced-graph function (`window::reduced_graph`), which scales each
//! interaction by a multiplier: 1 offline, the decay factor live.
//!
//! # Examples
//!
//! ```
//! use blockpart_ethereum::gen::{ChainGenerator, GeneratorConfig};
//! use blockpart_partition::HashPartitioner;
//! use blockpart_shard::{PlacementRule, RepartitionPolicy, ShardSimulator, SimulatorConfig};
//! use blockpart_types::ShardCount;
//!
//! let chain = ChainGenerator::new(GeneratorConfig::test_scale(1)).generate();
//! let cfg = SimulatorConfig::new(ShardCount::TWO)
//!     .with_placement(PlacementRule::Hash)
//!     .with_policy(RepartitionPolicy::Never);
//! let mut sim = ShardSimulator::new(cfg, Box::new(HashPartitioner::new()));
//! let result = sim.run(&chain.log);
//! assert!(result.windows.len() > 10);
//! assert_eq!(result.total_moves, 0); // hashing never moves a vertex
//! ```
//!
//! [`HashPartitioner`]: blockpart_partition::HashPartitioner
//! [`DistributedKl`]: blockpart_partition::DistributedKl
//! [`MultilevelPartitioner`]: blockpart_partition::MultilevelPartitioner

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
mod delta;
mod placement;
mod policy;
mod simulator;
mod state;
mod window;

pub use cost::{CostModel, CrossShardMode};
pub use delta::{AssignmentDelta, MigrationBatch};
pub use placement::PlacementRule;
pub use policy::{RepartitionPolicy, RepartitionScope};
pub use simulator::{ShardSimulator, SimulationResult, SimulatorConfig, WindowRecord};
pub use state::ShardedState;
pub use window::WindowedGraph;

pub use blockpart_types::{ShardCount, ShardId};
