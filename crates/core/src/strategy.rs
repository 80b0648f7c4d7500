//! The open strategy API: [`StrategySpec`] and [`StrategyRegistry`].
//!
//! The paper compares a closed set of five methods; this module turns the
//! partitioning strategy into an extension point. A *strategy* bundles
//! everything the pipeline needs to evaluate one way of sharding a chain:
//!
//! * a [`Partitioner`] (how vertices are assigned to shards),
//! * a [`SimulatorConfig`] (placement rule, repartition policy and scope),
//! * optionally a [`RuntimeConfig`] (2PC replay tuning overrides).
//!
//! The [`StrategyRegistry`] resolves strategies by name. It ships the five
//! canonical paper strategies plus the streaming baselines as built-ins,
//! accepts user-registered strategies, and understands parameterized spec
//! strings such as `r-metis[window=7]` (an R-METIS variant with a one-week
//! reduced graph) so new variants need no code at the call site.
//!
//! # Examples
//!
//! Registering and resolving a custom strategy:
//!
//! ```
//! use std::sync::Arc;
//!
//! use blockpart_core::{StrategyRegistry, StrategySpec};
//! use blockpart_partition::{HashPartitioner, Partitioner};
//! use blockpart_shard::{RepartitionPolicy, SimulatorConfig};
//! use blockpart_types::ShardCount;
//!
//! struct Frozen;
//!
//! impl StrategySpec for Frozen {
//!     fn name(&self) -> &str {
//!         "FROZEN"
//!     }
//!     fn build_partitioner(&self, _seed: u64) -> Box<dyn Partitioner> {
//!         Box::new(HashPartitioner::new())
//!     }
//!     fn simulator_config(&self, k: ShardCount) -> SimulatorConfig {
//!         SimulatorConfig::new(k).with_policy(RepartitionPolicy::Never)
//!     }
//! }
//!
//! let mut registry = StrategyRegistry::with_builtins();
//! registry.register("frozen", "hash once, never repartition", Arc::new(Frozen));
//! assert_eq!(registry.resolve("frozen").unwrap().name(), "FROZEN");
//! assert!(registry.resolve("no-such-strategy").is_err());
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use blockpart_metrics::Table;
use blockpart_partition::kl::DistributedKlConfig;
use blockpart_partition::{
    DistributedKl, Fennel, HashPartitioner, LinearGreedy, MultilevelConfig, MultilevelPartitioner,
    Partitioner,
};
use blockpart_runtime::RuntimeConfig;
use blockpart_shard::{PlacementRule, RepartitionPolicy, RepartitionScope, SimulatorConfig};
use blockpart_types::{Duration, ShardCount};

use crate::methods::Method;

/// Everything the experiment pipeline needs from one partitioning
/// strategy.
///
/// Implementations must be cheap to query: `build_partitioner` is called
/// once per run (inside the worker thread), the config accessors once per
/// strategy × shard-count pair. `Send + Sync` is required because the
/// pipeline fans strategy runs out across threads.
pub trait StrategySpec: Send + Sync {
    /// The display name used in tables and reports (`"HASH"`, …).
    fn name(&self) -> &str;

    /// Constructs the partitioner backing this strategy, seeded for
    /// reproducibility.
    fn build_partitioner(&self, seed: u64) -> Box<dyn Partitioner>;

    /// The simulator configuration (placement, repartition policy/scope)
    /// at `k` shards.
    fn simulator_config(&self, k: ShardCount) -> SimulatorConfig;

    /// The 2PC replay configuration at `k` shards. The default is the
    /// runtime's stock tuning; override to model e.g. different network
    /// latencies per strategy. The pipeline always forces the shard count
    /// and seed afterwards, so overrides need not set them.
    fn runtime_config(&self, k: ShardCount) -> RuntimeConfig {
        RuntimeConfig::new(k)
    }
}

/// The canonical simulator configuration of a paper method at `k` shards:
/// placement rule, repartition policy and scope per the paper's
/// description (4-hour windows, two-week periods).
pub(crate) fn canonical_simulator_config(method: Method, k: ShardCount) -> SimulatorConfig {
    let base = SimulatorConfig::new(k);
    match method {
        Method::Hash => base
            .with_placement(PlacementRule::Hash)
            .with_policy(RepartitionPolicy::Never),
        // §II-C: KL repartitions "based on the transactions executed
        // in the period" — the reduced window, not the cumulative
        // graph, which is what keeps its shards dynamically balanced.
        Method::Kl => base
            .with_placement(PlacementRule::Hash)
            .with_scope(RepartitionScope::Window)
            .with_scope_window(Duration::weeks(2))
            .with_policy(RepartitionPolicy::Periodic {
                interval: Duration::weeks(2),
            }),
        Method::Metis => base
            .with_placement(PlacementRule::MinCut)
            .with_scope(RepartitionScope::Full)
            .with_policy(RepartitionPolicy::Periodic {
                interval: Duration::weeks(2),
            }),
        Method::RMetis => base
            .with_placement(PlacementRule::MinCut)
            .with_scope(RepartitionScope::Window)
            .with_scope_window(Duration::weeks(2))
            .with_policy(RepartitionPolicy::Periodic {
                interval: Duration::weeks(2),
            }),
        Method::TrMetis => base
            .with_placement(PlacementRule::MinCut)
            .with_scope(RepartitionScope::Window)
            .with_scope_window(Duration::weeks(2))
            // thresholds picked via the ablation sweep (bin/ablation):
            // this setting halves the moves of R-METIS while matching
            // its edge-cut and balance — the paper's "dramatic
            // decrease ... without compromising edge-cuts and balance"
            .with_policy(RepartitionPolicy::Threshold {
                edge_cut: 0.5,
                balance: 2.0,
                // same cadence cap as the periodic methods: TR-METIS
                // exists to repartition *less*, never more
                min_interval: Duration::weeks(2),
            }),
    }
}

/// The canonical partitioner of a paper method.
pub(crate) fn canonical_partitioner(method: Method, seed: u64) -> Box<dyn Partitioner> {
    match method {
        Method::Hash => Box::new(HashPartitioner::new()),
        Method::Kl => Box::new(DistributedKl::new(DistributedKlConfig {
            seed,
            ..DistributedKlConfig::default()
        })),
        Method::Metis | Method::RMetis | Method::TrMetis => {
            Box::new(MultilevelPartitioner::new(MultilevelConfig {
                seed,
                ..MultilevelConfig::default()
            }))
        }
    }
}

/// One of the paper's five methods as a [`StrategySpec`], optionally
/// tuned: the registry's built-ins (`hash`, `r-metis[window=7]`,
/// `tr-metis[cut=0.4;balance=1.8]`, …) are instances of this type.
#[derive(Clone, Debug)]
pub(crate) struct CanonicalStrategy {
    method: Method,
    label: String,
    scope_window: Option<Duration>,
    interval: Option<Duration>,
    thresholds: Option<(f64, f64)>,
}

impl CanonicalStrategy {
    /// The untuned canonical strategy for `method`.
    pub(crate) fn new(method: Method) -> Self {
        CanonicalStrategy {
            method,
            label: method.label().to_string(),
            scope_window: None,
            interval: None,
            thresholds: None,
        }
    }

    /// Overrides the reduced-graph window length.
    pub(crate) fn with_scope_window(mut self, window: Duration) -> Self {
        self.scope_window = Some(window);
        self
    }

    /// Overrides the repartition cadence (`Periodic` interval or
    /// `Threshold` refractory period; ignored by `Never`).
    pub(crate) fn with_interval(mut self, interval: Duration) -> Self {
        self.interval = Some(interval);
        self
    }

    /// Overrides the `(edge_cut, balance)` trigger thresholds (only
    /// meaningful for TR-METIS).
    pub(crate) fn with_thresholds(mut self, edge_cut: f64, balance: f64) -> Self {
        self.thresholds = Some((edge_cut, balance));
        self
    }

    /// Replaces the display label (parameterized variants append their
    /// parameters so tables distinguish them).
    pub(crate) fn with_label(mut self, label: String) -> Self {
        self.label = label;
        self
    }
}

impl StrategySpec for CanonicalStrategy {
    fn name(&self) -> &str {
        &self.label
    }

    fn build_partitioner(&self, seed: u64) -> Box<dyn Partitioner> {
        canonical_partitioner(self.method, seed)
    }

    fn simulator_config(&self, k: ShardCount) -> SimulatorConfig {
        let mut cfg = canonical_simulator_config(self.method, k);
        if let Some(w) = self.scope_window {
            cfg = cfg.with_scope_window(w);
        }
        if let Some(iv) = self.interval {
            cfg.policy = match cfg.policy {
                RepartitionPolicy::Never => RepartitionPolicy::Never,
                RepartitionPolicy::Periodic { .. } => RepartitionPolicy::Periodic { interval: iv },
                RepartitionPolicy::Threshold {
                    edge_cut, balance, ..
                } => RepartitionPolicy::Threshold {
                    edge_cut,
                    balance,
                    min_interval: iv,
                },
            };
        }
        if let Some((cut, bal)) = self.thresholds {
            if let RepartitionPolicy::Threshold { min_interval, .. } = cfg.policy {
                cfg.policy = RepartitionPolicy::Threshold {
                    edge_cut: cut,
                    balance: bal,
                    min_interval,
                };
            }
        }
        cfg
    }
}

/// A streaming baseline (LDG or Fennel) as a [`StrategySpec`]: the
/// one-pass partitioner re-streams the full cumulative graph on the
/// paper's two-week cadence, with min-cut placement in between.
#[derive(Clone, Debug)]
pub struct StreamingStrategy {
    label: String,
    kind: StreamingKind,
}

#[derive(Clone, Copy, Debug)]
enum StreamingKind {
    Ldg { slack: f64 },
    Fennel { gamma: f64, pressure: f64 },
}

impl StreamingStrategy {
    /// Linear Deterministic Greedy with the given capacity slack.
    pub fn ldg(slack: f64) -> Self {
        StreamingStrategy {
            label: "LDG".to_string(),
            kind: StreamingKind::Ldg { slack },
        }
    }

    /// Fennel with the given load exponent and balance pressure.
    pub fn fennel(gamma: f64, pressure: f64) -> Self {
        StreamingStrategy {
            label: "FENNEL".to_string(),
            kind: StreamingKind::Fennel { gamma, pressure },
        }
    }

    fn with_label(mut self, label: String) -> Self {
        self.label = label;
        self
    }
}

impl StrategySpec for StreamingStrategy {
    fn name(&self) -> &str {
        &self.label
    }

    fn build_partitioner(&self, _seed: u64) -> Box<dyn Partitioner> {
        match self.kind {
            StreamingKind::Ldg { slack } => Box::new(LinearGreedy::new(slack)),
            StreamingKind::Fennel { gamma, pressure } => Box::new(Fennel::new(gamma, pressure)),
        }
    }

    fn simulator_config(&self, k: ShardCount) -> SimulatorConfig {
        SimulatorConfig::new(k)
            .with_placement(PlacementRule::MinCut)
            .with_scope(RepartitionScope::Full)
            .with_policy(RepartitionPolicy::Periodic {
                interval: Duration::weeks(2),
            })
    }
}

/// An error from strategy resolution or registration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StrategyError(String);

impl StrategyError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        StrategyError(msg.into())
    }
}

impl std::fmt::Display for StrategyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for StrategyError {}

/// Key=value parameters attached to a strategy spec string
/// (`r-metis[window=7]` → `{window: "7"}`).
///
/// # Examples
///
/// ```
/// use blockpart_core::StrategyParams;
///
/// let p = StrategyParams::parse("window=7;cut=0.4").unwrap();
/// assert_eq!(p.f64("cut").unwrap(), Some(0.4));
/// assert_eq!(p.days("window").unwrap().unwrap().as_secs(), 7 * 86_400);
/// assert_eq!(p.f64("absent").unwrap(), None);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StrategyParams {
    entries: BTreeMap<String, String>,
}

impl StrategyParams {
    /// Parses `key=value` pairs separated by `;` or `,`.
    pub fn parse(text: &str) -> Result<Self, StrategyError> {
        let mut entries = BTreeMap::new();
        for pair in text.split([';', ',']).filter(|p| !p.trim().is_empty()) {
            let Some((key, value)) = pair.split_once('=') else {
                return Err(StrategyError::new(format!(
                    "malformed strategy parameter `{pair}` (expected key=value)"
                )));
            };
            let (key, value) = (key.trim().to_string(), value.trim().to_string());
            if key.is_empty() || value.is_empty() {
                return Err(StrategyError::new(format!(
                    "malformed strategy parameter `{pair}` (expected key=value)"
                )));
            }
            if entries.insert(key.clone(), value).is_some() {
                return Err(StrategyError::new(format!(
                    "duplicate strategy parameter `{key}`"
                )));
            }
        }
        Ok(StrategyParams { entries })
    }

    /// `true` when no parameters were given.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The raw value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(String::as_str)
    }

    /// Parses `key` with `parse`; a value it rejects is an error saying
    /// the value is not `what`.
    fn parse_as<T>(
        &self,
        key: &str,
        what: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, StrategyError> {
        self.get(key)
            .map(|v| {
                parse(v).ok_or_else(|| {
                    StrategyError::new(format!("parameter `{key}`: `{v}` is not {what}"))
                })
            })
            .transpose()
    }

    /// Parses `key` as a finite `f64` (`NaN` and infinities are errors).
    pub fn f64(&self, key: &str) -> Result<Option<f64>, StrategyError> {
        self.parse_as(key, "a finite number", |v| {
            v.parse::<f64>().ok().filter(|x| x.is_finite())
        })
    }

    /// Parses `key` as a positive duration in days (fractional days
    /// allowed, rounded to whole hours, minimum one hour). A count whose
    /// seconds overflow `u64` (above about 2.1e14 days) is an error.
    pub fn days(&self, key: &str) -> Result<Option<Duration>, StrategyError> {
        self.parse_as(
            key,
            "a positive number of days that fits in u64 seconds",
            |v| {
                let d = v
                    .parse::<f64>()
                    .ok()
                    .filter(|d| d.is_finite() && *d > 0.0)?;
                // `as` saturates, so an overlarge count fails the multiply
                let hours = (d * 24.0).round().max(1.0) as u64;
                hours.checked_mul(3_600).map(Duration::from_secs)
            },
        )
    }

    /// The parameters re-rendered canonically: `key=value` pairs with
    /// values verbatim, sorted by key, `;`-joined. Strategy labels embed
    /// this form so a spec string round-trips as a report lookup key.
    pub fn canonical_string(&self) -> String {
        self.entries
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(";")
    }

    /// Parses `key` as a positive integer.
    pub fn usize(&self, key: &str) -> Result<Option<usize>, StrategyError> {
        self.parse_as(key, "a positive integer", |v| {
            v.parse::<usize>().ok().filter(|&n| n > 0)
        })
    }

    /// Errors when a parameter outside `allowed` was supplied.
    pub fn ensure_known(&self, strategy: &str, allowed: &[&str]) -> Result<(), StrategyError> {
        self.ensure_known_as("strategy", strategy, allowed)
    }

    /// Like [`ensure_known`](Self::ensure_known), but names the owner as
    /// a `kind` (e.g. "scenario") in the error message, so registries of
    /// other parameterized things produce accurate diagnostics.
    pub fn ensure_known_as(
        &self,
        kind: &str,
        owner: &str,
        allowed: &[&str],
    ) -> Result<(), StrategyError> {
        for key in self.entries.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(StrategyError::new(format!(
                    "{kind} `{owner}` does not take parameter `{key}` (accepted: {})",
                    if allowed.is_empty() {
                        "none".to_string()
                    } else {
                        allowed.join(", ")
                    }
                )));
            }
        }
        Ok(())
    }
}

/// A strategy factory: builds a spec from parsed parameters.
pub type StrategyFactory =
    dyn Fn(&StrategyParams) -> Result<Arc<dyn StrategySpec>, StrategyError> + Send + Sync;

/// A resolved strategy paired with the spec string that produced it
/// (see [`StrategyRegistry::resolve_list_with_sources`]).
pub type ResolvedStrategy = (Arc<dyn StrategySpec>, String);

enum EntryKind {
    /// A strategy factory.
    Factory(Arc<StrategyFactory>),
    /// A late-bound alias: the normalized key of the target entry,
    /// resolved at lookup time so re-registering the target retargets
    /// the alias too.
    Alias(String),
}

struct Entry {
    /// Normalized lookup key (`rmetis`).
    key: String,
    /// The spelling the strategy was registered under (`r-metis`),
    /// shown in listings and errors.
    display: String,
    description: String,
    params_help: String,
    kind: EntryKind,
}

/// Name → strategy resolution: the one public way to name a strategy,
/// the paper's five built-ins and user registrations alike.
///
/// Lookup is case-insensitive and ignores `-`/`_` (so `r-metis`,
/// `rmetis` and `R_METIS` all resolve the same entry; the paper's
/// alternate `p-metis` label is registered as an alias). A spec string
/// may parameterize the strategy: `name[key=value;key=value]`.
pub struct StrategyRegistry {
    entries: Vec<Entry>,
}

impl std::fmt::Debug for StrategyRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StrategyRegistry")
            .field("strategies", &self.names())
            .finish()
    }
}

/// Normalizes a strategy name for lookup: lowercase, `-`/`_` stripped.
pub(crate) fn normalize_name(name: &str) -> String {
    name.trim()
        .chars()
        .filter(|c| *c != '-' && *c != '_')
        .flat_map(char::to_lowercase)
        .collect()
}

/// Normalizes a full spec string (`name` or `name[params]`) into a
/// lookup key: normalized name plus canonically re-rendered parameters.
/// Registry-built labels embed [`StrategyParams::canonical_string`], so
/// the spec string a strategy was resolved from and the label its runs
/// carry map to the same key.
pub(crate) fn spec_lookup_key(spec: &str) -> String {
    let spec = spec.trim();
    if let Some((name, rest)) = spec.split_once('[') {
        if let Some(body) = rest.strip_suffix(']') {
            if let Ok(params) = StrategyParams::parse(body) {
                if params.is_empty() {
                    return normalize_name(name);
                }
                return format!("{}[{}]", normalize_name(name), params.canonical_string());
            }
        }
    }
    normalize_name(spec)
}

impl StrategyRegistry {
    /// An empty registry (no built-ins).
    pub fn empty() -> Self {
        StrategyRegistry {
            entries: Vec::new(),
        }
    }

    /// A registry with the built-in strategies: the paper's five (HASH,
    /// KL, METIS, R-METIS, TR-METIS — parameterizable) and the streaming
    /// baselines (LDG, FENNEL).
    pub fn with_builtins() -> Self {
        let mut reg = StrategyRegistry::empty();
        reg.register_factory(
            "hash",
            "hash(id) mod k: static balance, no moves, heavy cut",
            "",
            |params| {
                params.ensure_known("hash", &[])?;
                Ok(Arc::new(CanonicalStrategy::new(Method::Hash)))
            },
        );
        for (name, method) in [
            ("kl", Method::Kl),
            ("metis", Method::Metis),
            ("r-metis", Method::RMetis),
            ("tr-metis", Method::TrMetis),
        ] {
            let (description, params_help, allowed): (&str, &str, &[&str]) = match method {
                Method::Kl => (
                    "distributed Kernighan-Lin over the reduced graph",
                    "window=<days>, interval=<days>",
                    &["window", "interval"],
                ),
                Method::Metis => (
                    "periodic multilevel partitioning of the full graph",
                    "interval=<days>",
                    &["interval"],
                ),
                Method::RMetis => (
                    "periodic multilevel partitioning of the reduced graph",
                    "window=<days>, interval=<days>",
                    &["window", "interval"],
                ),
                Method::TrMetis => (
                    "threshold-triggered multilevel on the reduced graph",
                    "window=<days>, interval=<days>, cut=<f>, balance=<f>",
                    &["window", "interval", "cut", "balance"],
                ),
                Method::Hash => unreachable!("registered above"),
            };
            let display_name = name;
            reg.register_factory(name, description, params_help, move |params| {
                params.ensure_known(display_name, allowed)?;
                let mut spec = CanonicalStrategy::new(method);
                if let Some(w) = params.days("window")? {
                    spec = spec.with_scope_window(w);
                }
                if let Some(iv) = params.days("interval")? {
                    spec = spec.with_interval(iv);
                }
                match (params.f64("cut")?, params.f64("balance")?) {
                    (None, None) => {}
                    (cut, balance) => {
                        let canonical =
                            match canonical_simulator_config(method, ShardCount::TWO).policy {
                                RepartitionPolicy::Threshold {
                                    edge_cut, balance, ..
                                } => (edge_cut, balance),
                                _ => unreachable!("cut/balance only accepted for TR-METIS"),
                            };
                        let (c, b) = (cut.unwrap_or(canonical.0), balance.unwrap_or(canonical.1));
                        spec = spec.with_thresholds(c, b);
                    }
                }
                if !params.is_empty() {
                    // embed the parameters verbatim so the spec string
                    // round-trips as a report lookup key
                    let label = format!("{}[{}]", method.label(), params.canonical_string());
                    spec = spec.with_label(label);
                }
                Ok(Arc::new(spec))
            });
        }
        // the paper's Fig. 4 labels R-METIS as "P-METIS"
        reg.register_alias("p-metis", "r-metis");
        reg.register_factory(
            "ldg",
            "Linear Deterministic Greedy streaming, re-streamed biweekly",
            "slack=<f>",
            |params| {
                params.ensure_known("ldg", &["slack"])?;
                let slack = params.f64("slack")?.unwrap_or(1.1);
                if slack < 1.0 {
                    return Err(StrategyError::new("ldg: slack must be at least 1.0"));
                }
                let mut spec = StreamingStrategy::ldg(slack);
                if !params.is_empty() {
                    spec = spec.with_label(format!("LDG[{}]", params.canonical_string()));
                }
                Ok(Arc::new(spec))
            },
        );
        reg.register_factory(
            "fennel",
            "Fennel streaming partitioner, re-streamed biweekly",
            "gamma=<f>, pressure=<f>",
            |params| {
                params.ensure_known("fennel", &["gamma", "pressure"])?;
                let gamma = params.f64("gamma")?.unwrap_or(1.5);
                let pressure = params.f64("pressure")?.unwrap_or(1.0);
                if gamma <= 1.0 || pressure <= 0.0 {
                    return Err(StrategyError::new(
                        "fennel: gamma must exceed 1.0 and pressure must be positive",
                    ));
                }
                let mut spec = StreamingStrategy::fennel(gamma, pressure);
                if !params.is_empty() {
                    spec = spec.with_label(format!("FENNEL[{}]", params.canonical_string()));
                }
                Ok(Arc::new(spec))
            },
        );
        reg
    }

    /// Registers a fixed strategy under `name`, replacing any existing
    /// entry with the same (normalized) name. The spec rejects
    /// parameters; use [`register_factory`](Self::register_factory) for
    /// parameterized strategies.
    pub fn register(&mut self, name: &str, description: &str, spec: Arc<dyn StrategySpec>) {
        let owned_name = name.to_string();
        self.register_factory(name, description, "", move |params| {
            params.ensure_known(&owned_name, &[])?;
            Ok(Arc::clone(&spec))
        });
    }

    /// Registers a parameterized strategy factory under `name`, replacing
    /// any existing entry with the same (normalized) name. `params_help`
    /// is the human-readable parameter summary shown by
    /// [`help_table`](Self::help_table) (empty for none).
    pub fn register_factory(
        &mut self,
        name: &str,
        description: &str,
        params_help: &str,
        factory: impl Fn(&StrategyParams) -> Result<Arc<dyn StrategySpec>, StrategyError>
            + Send
            + Sync
            + 'static,
    ) {
        let key = normalize_name(name);
        assert!(!key.is_empty(), "strategy name must be non-empty");
        self.entries.retain(|e| e.key != key);
        self.entries.push(Entry {
            key,
            display: name.trim().to_string(),
            description: description.to_string(),
            params_help: params_help.to_string(),
            kind: EntryKind::Factory(Arc::new(factory)),
        });
    }

    /// Registers `alias` to resolve exactly like `target`. The binding
    /// is late: re-registering `target` retargets the alias too.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not registered.
    pub fn register_alias(&mut self, alias: &str, target: &str) {
        let target_entry = self
            .entry(target)
            .unwrap_or_else(|| panic!("alias target `{target}` is not registered"));
        let description = format!("alias of {}", target_entry.display);
        let target_key = target_entry.key.clone();
        let key = normalize_name(alias);
        assert!(!key.is_empty(), "strategy name must be non-empty");
        self.entries.retain(|e| e.key != key);
        self.entries.push(Entry {
            key,
            display: alias.trim().to_string(),
            description,
            params_help: String::new(),
            kind: EntryKind::Alias(target_key),
        });
    }

    fn entry(&self, name: &str) -> Option<&Entry> {
        let key = normalize_name(name);
        self.entries.iter().find(|e| e.key == key)
    }

    /// `true` when `name` resolves (ignoring parameters).
    pub fn contains(&self, name: &str) -> bool {
        self.entry(name).is_some()
    }

    /// The registered strategy names as they were registered
    /// (registration order, aliases included).
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.display.as_str()).collect()
    }

    /// Resolves one spec string: `name` or `name[key=value;key=value]`.
    pub fn resolve(&self, spec: &str) -> Result<Arc<dyn StrategySpec>, StrategyError> {
        let spec = spec.trim();
        let (name, params) = match spec.split_once('[') {
            None => (spec, StrategyParams::default()),
            Some((name, rest)) => {
                let Some(body) = rest.strip_suffix(']') else {
                    return Err(StrategyError::new(format!(
                        "unclosed `[` in strategy spec `{spec}`"
                    )));
                };
                (name.trim(), StrategyParams::parse(body)?)
            }
        };
        let Some(entry) = self.entry(name) else {
            return Err(StrategyError::new(format!(
                "unknown strategy `{name}` (registered: {})",
                self.names().join(", ")
            )));
        };
        (self.factory_of(entry)?)(&params)
    }

    /// The factory behind an entry, following one alias hop.
    fn factory_of<'e>(&'e self, entry: &'e Entry) -> Result<&'e StrategyFactory, StrategyError> {
        match &entry.kind {
            EntryKind::Factory(f) => Ok(f.as_ref()),
            EntryKind::Alias(target_key) => {
                let target = self.entries.iter().find(|e| e.key == *target_key);
                match target.map(|e| &e.kind) {
                    Some(EntryKind::Factory(f)) => Ok(f.as_ref()),
                    _ => Err(StrategyError::new(format!(
                        "alias `{}` points at `{target_key}`, which is no longer registered",
                        entry.display
                    ))),
                }
            }
        }
    }

    /// Resolves a comma-separated list of spec strings; commas inside
    /// `[...]` parameter blocks do not split. The word `all` expands to
    /// the paper's five canonical strategies (unless a strategy was
    /// registered under that name, which then takes precedence). An
    /// empty list is an error (a misconfigured caller should not
    /// silently run nothing).
    pub fn resolve_list(&self, specs: &str) -> Result<Vec<Arc<dyn StrategySpec>>, StrategyError> {
        Ok(self
            .resolve_list_with_sources(specs)?
            .into_iter()
            .map(|(spec, _)| spec)
            .collect())
    }

    /// Like [`resolve_list`](Self::resolve_list), but pairs every spec
    /// with the spec string that produced it (`all` expands to the
    /// canonical strategies' labels). [`Experiment`](crate::Experiment)
    /// records these so report lookups work with the requested spelling
    /// (e.g. an alias) as well as the display name.
    pub fn resolve_list_with_sources(
        &self,
        specs: &str,
    ) -> Result<Vec<ResolvedStrategy>, StrategyError> {
        let mut out = Vec::new();
        for part in split_top_level(specs) {
            if normalize_name(&part) == "all" && !self.contains("all") {
                for spec in self.canonical()? {
                    let label = spec.name().to_string();
                    out.push((spec, label));
                }
            } else {
                out.push((self.resolve(&part)?, part.trim().to_string()));
            }
        }
        if out.is_empty() {
            return Err(StrategyError::new(format!(
                "empty strategy list `{specs}` (registered: {})",
                self.names().join(", ")
            )));
        }
        Ok(out)
    }

    /// The paper's five canonical strategies, in presentation order.
    pub fn canonical(&self) -> Result<Vec<Arc<dyn StrategySpec>>, StrategyError> {
        Method::ALL
            .iter()
            .map(|m| self.resolve(m.label()))
            .collect()
    }

    /// Renders the registry as a help table (strategy, parameters,
    /// description).
    pub fn help_table(&self) -> Table {
        let mut t = Table::new(vec!["strategy", "parameters", "description"]);
        for e in &self.entries {
            // aliases inherit the (current) target's parameter summary
            let params_help = match &e.kind {
                EntryKind::Factory(_) => e.params_help.clone(),
                EntryKind::Alias(target_key) => self
                    .entries
                    .iter()
                    .find(|t| t.key == *target_key)
                    .map(|t| t.params_help.clone())
                    .unwrap_or_default(),
            };
            t.row(vec![e.display.clone(), params_help, e.description.clone()]);
        }
        t
    }
}

impl Default for StrategyRegistry {
    fn default() -> Self {
        StrategyRegistry::with_builtins()
    }
}

/// Splits on commas not enclosed in `[...]`.
pub(crate) fn split_top_level(text: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut current = String::new();
    for c in text.chars() {
        match c {
            '[' => {
                depth += 1;
                current.push(c);
            }
            ']' => {
                depth = depth.saturating_sub(1);
                current.push(c);
            }
            ',' if depth == 0 => {
                parts.push(std::mem::take(&mut current));
            }
            c => current.push(c),
        }
    }
    parts.push(current);
    parts.retain(|p| !p.trim().is_empty());
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_cover_paper_methods_and_baselines() {
        let reg = StrategyRegistry::with_builtins();
        for m in Method::ALL {
            assert!(reg.contains(m.label()), "{m} missing");
        }
        assert!(reg.contains("ldg"));
        assert!(reg.contains("fennel"));
        assert!(reg.contains("p-metis"), "paper alias");
        assert_eq!(reg.canonical().unwrap().len(), 5);
    }

    #[test]
    fn lookup_is_name_normalized() {
        let reg = StrategyRegistry::with_builtins();
        for name in ["R-METIS", "rmetis", "r_metis", " r-metis "] {
            assert_eq!(reg.resolve(name).unwrap().name(), "R-METIS", "{name}");
        }
        assert_eq!(reg.resolve("pmetis").unwrap().name(), "R-METIS");
    }

    #[test]
    fn parameterized_rmetis_changes_window() {
        let reg = StrategyRegistry::with_builtins();
        let spec = reg.resolve("r-metis[window=7]").unwrap();
        assert_eq!(
            spec.simulator_config(ShardCount::TWO).scope_window,
            Duration::days(7)
        );
        // parameters embed verbatim so the spec string round-trips
        assert_eq!(spec.name(), "R-METIS[window=7]");
        assert_eq!(
            spec_lookup_key(spec.name()),
            spec_lookup_key("r-metis[window=7]")
        );
    }

    #[test]
    fn parameterized_trmetis_thresholds() {
        let reg = StrategyRegistry::with_builtins();
        let spec = reg.resolve("tr-metis[cut=0.3,balance=1.7]").unwrap();
        match spec.simulator_config(ShardCount::TWO).policy {
            RepartitionPolicy::Threshold {
                edge_cut, balance, ..
            } => {
                assert_eq!(edge_cut, 0.3);
                assert_eq!(balance, 1.7);
            }
            other => panic!("unexpected policy {other:?}"),
        }
    }

    #[test]
    fn unknown_names_and_params_error() {
        let reg = StrategyRegistry::with_builtins();
        let err = reg.resolve("bogus").err().expect("should fail").to_string();
        assert!(err.contains("bogus") && err.contains("hash"), "{err}");
        let err = reg
            .resolve("hash[window=7]")
            .err()
            .expect("should fail")
            .to_string();
        assert!(err.contains("does not take parameter"), "{err}");
        let err = reg
            .resolve("metis[cut=0.5]")
            .err()
            .expect("should fail")
            .to_string();
        assert!(err.contains("cut"), "{err}");
        assert!(reg.resolve("r-metis[window=").is_err());
        assert!(reg.resolve("r-metis[window]").is_err());
        assert!(reg.resolve("r-metis[window=x]").is_err());
    }

    #[test]
    fn non_positive_durations_are_rejected() {
        let reg = StrategyRegistry::with_builtins();
        // 213503982334602 days is the first count whose seconds overflow
        for bad in ["0", "-7", "nan", "inf", "1e300", "213503982334602"] {
            let err = reg
                .resolve(&format!("r-metis[window={bad}]"))
                .err()
                .expect("should fail")
                .to_string();
            assert!(err.starts_with("parameter `window`"), "window={bad}: {err}");
            assert!(err.contains("positive"), "window={bad}: {err}");
        }
        let spec = reg.resolve("r-metis[window=213503982334601]").unwrap();
        assert_eq!(
            spec.simulator_config(ShardCount::TWO).scope_window,
            Duration::hours(213_503_982_334_601 * 24)
        );
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        let reg = StrategyRegistry::with_builtins();
        for (spec, key) in [
            ("ldg[slack=NaN]", "slack"),
            ("tr-metis[cut=NaN]", "cut"),
            ("tr-metis[balance=inf]", "balance"),
            ("fennel[gamma=1e400]", "gamma"),
        ] {
            let err = reg.resolve(spec).err().expect("should fail").to_string();
            assert!(
                err.starts_with(&format!("parameter `{key}`")),
                "{spec}: {err}"
            );
        }
    }

    #[test]
    fn empty_strategy_lists_are_rejected() {
        let reg = StrategyRegistry::with_builtins();
        for empty in ["", "  ", ",,", " , "] {
            let err = reg
                .resolve_list(empty)
                .err()
                .expect("should fail")
                .to_string();
            assert!(err.contains("empty strategy list"), "`{empty}`: {err}");
        }
    }

    #[test]
    fn listings_show_registered_spellings() {
        let reg = StrategyRegistry::with_builtins();
        let names = reg.names();
        assert!(names.contains(&"r-metis"), "{names:?}");
        assert!(names.contains(&"tr-metis"), "{names:?}");
        assert!(reg.help_table().render_ascii().contains("r-metis"));
        let err = reg.resolve("bogus").err().expect("should fail").to_string();
        assert!(err.contains("tr-metis"), "{err}");
    }

    #[test]
    fn resolve_list_respects_brackets() {
        let reg = StrategyRegistry::with_builtins();
        let specs = reg
            .resolve_list("hash, tr-metis[cut=0.4,balance=1.9], ldg[slack=1.5]")
            .unwrap();
        let names: Vec<&str> = specs.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec!["HASH", "TR-METIS[balance=1.9;cut=0.4]", "LDG[slack=1.5]"]
        );
        assert_eq!(reg.resolve_list("all").unwrap().len(), 5);
        // the `all` keyword is as case-insensitive as strategy names
        assert_eq!(reg.resolve_list("ALL").unwrap().len(), 5);
        assert_eq!(reg.resolve_list("hash,All").unwrap().len(), 6);
    }

    #[test]
    fn registration_replaces_and_lists() {
        let mut reg = StrategyRegistry::with_builtins();
        let n = reg.names().len();
        reg.register(
            "hash",
            "overridden",
            Arc::new(CanonicalStrategy::new(Method::Hash).with_label("HASH2".into())),
        );
        assert_eq!(reg.names().len(), n, "replacement, not duplication");
        assert_eq!(reg.resolve("hash").unwrap().name(), "HASH2");
        let help = reg.help_table().render_ascii();
        assert!(help.contains("overridden"));
    }

    #[test]
    fn aliases_follow_re_registration() {
        let mut reg = StrategyRegistry::with_builtins();
        assert_eq!(reg.resolve("p-metis").unwrap().name(), "R-METIS");
        reg.register(
            "r-metis",
            "replaced",
            Arc::new(CanonicalStrategy::new(Method::RMetis).with_label("RM2".into())),
        );
        // the alias is late-bound: it sees the replacement
        assert_eq!(reg.resolve("p-metis").unwrap().name(), "RM2");
    }
}
