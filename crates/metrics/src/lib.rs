//! Metric series, summary statistics and report rendering for the
//! partitioning study.
//!
//! The paper presents its results as time series sampled in 4-hour windows
//! (Fig. 3), box-and-whisker/violin statistics over periods (Fig. 4) and
//! per-method aggregates versus shard count (Fig. 5). This crate provides
//! the corresponding building blocks:
//!
//! * [`FiveNumber`] — min/Q1/median/Q3/max (the box-and-whisker numbers);
//! * [`ViolinDensity`] — a Gaussian kernel density estimate (the violin);
//! * [`Table`] — ASCII/CSV table rendering for the bench binaries;
//! * [`Json`] — a minimal JSON builder for machine-readable reports
//!   (the workspace builds offline, without `serde_json`);
//! * [`calendar`] — month labelling aligned with the paper's x-axes.
//!
//! # Examples
//!
//! ```
//! use blockpart_metrics::FiveNumber;
//!
//! let stats = FiveNumber::of(&[1.0, 2.0, 3.0, 4.0, 100.0]).unwrap();
//! assert_eq!(stats.median, 3.0);
//! assert_eq!(stats.max, 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
mod concentration;
mod histogram;
mod json;
mod report;
mod summary;

pub use concentration::{gini, top_share};
pub use histogram::LogHistogram;
pub use json::Json;
pub use report::Table;
pub use summary::{percentile_sorted, FiveNumber, ViolinDensity};
