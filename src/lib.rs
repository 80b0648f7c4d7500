//! # blockpart
//!
//! A reproduction of **“Challenges and Pitfalls of Partitioning
//! Blockchains”** (Fynn & Pedone, DSN 2018) as a reusable Rust toolkit:
//! model a blockchain as a weighted interaction graph, shard it with five
//! partitioning methods, and measure the edge-cut / balance / moves
//! trade-offs the paper reports.
//!
//! This crate is a facade over the workspace:
//!
//! * [`types`] — newtypes (addresses, shards, time, gas);
//! * [`graph`] — the interaction graph, CSR views, windows, algorithms;
//! * [`partition`] — hashing, distributed Kernighan–Lin, multilevel
//!   METIS-style k-way partitioning;
//! * [`ethereum`] — a synthetic chain substrate: EVM-lite, contracts,
//!   blocks and the era-driven workload generator;
//! * [`shard`] — the sharding simulator (placement, repartition policies,
//!   move accounting);
//! * [`storage`] — the out-of-core backend: an on-disk segment store a
//!   generated chain streams through;
//! * [`runtime`] — the sharded 2PC execution engine;
//! * [`live`] — the online repartitioning service: windowed graph,
//!   triggered re-partition, live state migration through the 2PC
//!   runtime;
//! * [`metrics`] — summary statistics and report rendering;
//! * [`obs`] — spans/events, a metrics registry and Perfetto/profile
//!   exporters (virtual-clock traces are deterministic);
//! * [`core`] — the strategy registry, the unified experiment pipeline
//!   and one entry point per paper figure.
//!
//! The strategy surface is open: implement
//! [`StrategySpec`](crate::core::StrategySpec), register it with a
//! [`StrategyRegistry`](crate::core::StrategyRegistry) and run it through
//! [`Experiment`](crate::core::Experiment) — see the README's *Extending
//! with your own strategy* section (compile-tested below).
//!
//! # Quickstart
//!
//! ```
//! use blockpart::core::{Experiment, StrategyRegistry};
//! use blockpart::ethereum::gen::{ChainGenerator, GeneratorConfig};
//! use blockpart::types::ShardCount;
//!
//! // 1. synthesize a chain (a 14-day toy history; use demo_scale for the
//! //    full 30-month timeline)
//! let chain = ChainGenerator::new(GeneratorConfig::test_scale(7)).generate();
//!
//! // 2. shard it two ways — strategies resolve by name through the registry
//! let registry = StrategyRegistry::with_builtins();
//! let report = Experiment::over_chain(&chain)
//!     .named_strategies(&registry, "hash,metis")
//!     .unwrap()
//!     .shard_counts(vec![ShardCount::TWO])
//!     .run();
//!
//! // 3. the paper's headline: hashing never moves state but cuts many
//! //    edges; METIS cuts few edges but moves a lot of state
//! let hash = report.offline("hash", ShardCount::TWO).unwrap();
//! let metis = report.offline("metis", ShardCount::TWO).unwrap();
//! assert_eq!(hash.total_moves, 0);
//! assert!(metis.total_moves > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use blockpart_core as core;
pub use blockpart_ethereum as ethereum;
pub use blockpart_graph as graph;
pub use blockpart_live as live;
pub use blockpart_metrics as metrics;
pub use blockpart_obs as obs;
pub use blockpart_partition as partition;
pub use blockpart_runtime as runtime;
pub use blockpart_shard as shard;
pub use blockpart_storage as storage;
pub use blockpart_types as types;

/// The README's code blocks, compile-tested as doctests (`cargo test`
/// runs them; the "extending with your own strategy" example must keep
/// working against the current API).
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
