//! The partitioning study of Fynn & Pedone (DSN 2018), end to end.
//!
//! This crate wires the substrates together: it takes an interaction log
//! (usually from [`blockpart_ethereum`]'s generator), runs the five
//! partitioning methods across shard-count configurations via the
//! [`blockpart_shard`] simulator, and aggregates the per-window metrics
//! into the tables behind the paper's figures.
//!
//! * [`StrategySpec`] / [`StrategyRegistry`] — the open strategy API:
//!   the five paper strategies ship as built-ins (parameterizable, e.g.
//!   `r-metis[window=7]`), and user strategies register alongside them;
//! * [`Experiment`] — the unified pipeline: workload source → graph
//!   windowing → strategies × shard counts → offline simulation and/or
//!   2PC runtime replay, collected in an [`ExperimentReport`] that
//!   renders as tables or serializes to JSON;
//! * [`experiments`] — one function per paper figure, each returning
//!   renderable tables/series.
//!
//! # Examples
//!
//! ```
//! use blockpart_core::{Experiment, StrategyRegistry};
//! use blockpart_ethereum::gen::{ChainGenerator, GeneratorConfig};
//! use blockpart_types::ShardCount;
//!
//! let chain = ChainGenerator::new(GeneratorConfig::test_scale(5)).generate();
//! let report = Experiment::over_log(&chain.log)
//!     .named_strategies(&StrategyRegistry::with_builtins(), "hash,metis")
//!     .unwrap()
//!     .shard_counts(vec![ShardCount::TWO])
//!     .run();
//! let hash = report.offline("hash", ShardCount::TWO).unwrap();
//! assert_eq!(hash.total_moves, 0);
//! assert_eq!(report.offline_table().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
mod experiment;
pub mod experiments;
mod methods;
mod profile;
mod scenario;
mod strategy;

pub use experiment::{Experiment, ExperimentReport, ExperimentRun};
pub use profile::{run_profile, ProfileReport};
pub use scenario::{ComposedScenario, ScenarioFactory, ScenarioRegistry, ScenarioSpec};
pub use strategy::{
    ResolvedStrategy, StrategyError, StrategyFactory, StrategyParams, StrategyRegistry,
    StrategySpec, StreamingStrategy,
};

pub use blockpart_types::{Duration, ShardCount, Timestamp};
