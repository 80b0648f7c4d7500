//! The scenario registry: named, parameterized adversarial workloads.
//!
//! Mirrors the [`StrategyRegistry`](crate::StrategyRegistry) shape: a
//! [`ScenarioSpec`] turns a [`GeneratorConfig`] into a [`SyntheticChain`]
//! by composing [`TrafficInjector`]s over the organic timeline, and a
//! [`ScenarioRegistry`] resolves `name[key=value;...]` spec strings —
//! case-insensitively, ignoring `-`/`_`, with aliases and user
//! registration. The built-ins are the paper's anomalies and their
//! modern descendants: ICO hub bursts, dummy-account spam, DEX/arbitrage
//! bundles, account-abstraction batches, NFT mint stampedes and
//! phase-shifting hub mixes.
//!
//! Every scenario is deterministic and seedable: the same
//! `GeneratorConfig` always produces the same chain, and composing
//! scenarios adds their injected transaction counts exactly.

use std::sync::Arc;

use blockpart_ethereum::gen::{
    derive_seed, AaBatchInjector, ChainGenerator, DexArbInjector, DummySpamInjector,
    GeneratorConfig, HubBurstInjector, NftMintInjector, PhaseShiftInjector, Span, TrafficInjector,
};
use blockpart_ethereum::SyntheticChain;
use blockpart_metrics::Table;
use blockpart_types::Timestamp;

use crate::strategy::{normalize_name, split_top_level, StrategyError, StrategyParams};

/// A named adversarial workload: a deterministic, seedable
/// transformation of the friendly synthetic chain.
///
/// Implementations return the [`TrafficInjector`]s to stack on the
/// organic generator; [`build`](ScenarioSpec::build) assembles and runs
/// the generator (override only for scenarios that are not
/// injector-shaped).
pub trait ScenarioSpec: Send + Sync {
    /// The scenario's display name. Registry-built scenarios embed
    /// their canonical parameters (`hub-burst[contracts=3]`) so the name
    /// round-trips as a report lookup key.
    fn name(&self) -> &str;

    /// The injectors this scenario stacks on `base`'s organic timeline
    /// (empty for the friendly baseline).
    fn injectors(&self, base: &GeneratorConfig) -> Vec<Box<dyn TrafficInjector>>;

    /// Generates the scenario's chain from `base`.
    fn build(&self, base: &GeneratorConfig) -> SyntheticChain {
        let mut generator = ChainGenerator::new(base.clone());
        for injector in self.injectors(base) {
            generator = generator.with_injector(injector);
        }
        generator.generate()
    }
}

/// The shared knobs every built-in scenario accepts: where in the
/// timeline the hostile span sits.
#[derive(Clone, Copy, Debug, Default)]
struct SpanParams {
    start: Option<blockpart_types::Duration>,
    duration: Option<blockpart_types::Duration>,
}

impl SpanParams {
    fn parse(params: &StrategyParams) -> Result<Self, StrategyError> {
        Ok(SpanParams {
            start: params.days("start")?,
            duration: params.days("duration")?,
        })
    }

    /// The active span: defaults to 35% into the timeline through the
    /// end, clamped to the timeline.
    fn span_of(self, base: &GeneratorConfig) -> Span {
        let total = base.timeline.end().as_secs();
        let start = self
            .start
            .map(|d| d.as_secs())
            .unwrap_or(total * 35 / 100)
            .min(total);
        let end = match self.duration {
            Some(d) => start.saturating_add(d.as_secs()).min(total),
            None => total,
        };
        Span::new(Timestamp::from_secs(start), Timestamp::from_secs(end))
    }
}

/// Largest accepted `intensity`: 33× the largest built-in default
/// (`nft-mint`'s 3.0). Far larger values make the injectors request
/// more transactions than memory holds.
const MAX_INTENSITY: f64 = 100.0;

/// The `intensity` parameter, or `default` when absent. Values outside
/// `[0, MAX_INTENSITY]` are errors.
fn intensity(params: &StrategyParams, default: f64) -> Result<f64, StrategyError> {
    let x = params.f64("intensity")?.unwrap_or(default);
    if (0.0..=MAX_INTENSITY).contains(&x) {
        return Ok(x);
    }
    Err(StrategyError::new(format!(
        "parameter `intensity`: `{}` is outside [0, {MAX_INTENSITY}]",
        params.get("intensity").unwrap_or_default()
    )))
}

/// Largest accepted count (`contracts`, `pools`, `bundle`, `bundlers`,
/// `batch`, `drops`, `phases`): 125× the largest built-in default
/// (`aa-batch`'s `batch=8`). An unbounded count lets one spec ask the
/// injectors for more hubs and bundles than memory holds.
const MAX_COUNT: usize = 1000;

/// The count parameter `key`, or `default` when absent. Counts outside
/// `[1, MAX_COUNT]` are errors.
fn count(params: &StrategyParams, key: &str, default: usize) -> Result<usize, StrategyError> {
    let n = params.usize(key)?.unwrap_or(default);
    if n <= MAX_COUNT {
        return Ok(n);
    }
    Err(StrategyError::new(format!(
        "parameter `{key}`: `{}` is outside [1, {MAX_COUNT}]",
        params.get(key).unwrap_or_default()
    )))
}

/// Which built-in workload a [`BuiltinScenario`] emits.
#[derive(Clone, Copy, Debug)]
enum ScenarioKind {
    /// The unmodified organic chain.
    Friendly,
    /// 2017-style ICO hub burst.
    HubBurst { contracts: usize, intensity: f64 },
    /// 2016-style dummy-account spam.
    DummySpam { intensity: f64 },
    /// DEX/arbitrage searcher bundles.
    DexArb {
        pools: usize,
        bundle: usize,
        intensity: f64,
    },
    /// Account-abstraction batched user-ops.
    AaBatch {
        bundlers: usize,
        batch: usize,
        intensity: f64,
    },
    /// NFT mint stampedes in short drop windows.
    NftMint { drops: usize, intensity: f64 },
    /// Phase-shifting hub mix (rotates hub identity mid-stream).
    PhaseShift { phases: usize, intensity: f64 },
}

/// A registry-built scenario: kind + span + display label.
#[derive(Clone, Debug)]
struct BuiltinScenario {
    label: String,
    kind: ScenarioKind,
    span: SpanParams,
}

impl ScenarioSpec for BuiltinScenario {
    fn name(&self) -> &str {
        &self.label
    }

    fn injectors(&self, base: &GeneratorConfig) -> Vec<Box<dyn TrafficInjector>> {
        let span = self.span.span_of(base);
        let seed = derive_seed(base.seed, &self.label);
        match self.kind {
            ScenarioKind::Friendly => Vec::new(),
            ScenarioKind::HubBurst {
                contracts,
                intensity,
            } => vec![Box::new(HubBurstInjector::new(
                seed, span, contracts, intensity,
            ))],
            ScenarioKind::DummySpam { intensity } => {
                vec![Box::new(DummySpamInjector::new(seed, span, intensity))]
            }
            ScenarioKind::DexArb {
                pools,
                bundle,
                intensity,
            } => vec![Box::new(DexArbInjector::new(
                seed, span, pools, bundle, intensity,
            ))],
            ScenarioKind::AaBatch {
                bundlers,
                batch,
                intensity,
            } => vec![Box::new(AaBatchInjector::new(
                seed, span, bundlers, batch, intensity,
            ))],
            ScenarioKind::NftMint { drops, intensity } => {
                vec![Box::new(NftMintInjector::new(seed, span, drops, intensity))]
            }
            ScenarioKind::PhaseShift { phases, intensity } => {
                vec![Box::new(PhaseShiftInjector::new(
                    seed, span, phases, intensity,
                ))]
            }
        }
    }
}

/// A composition of scenarios: concatenates every part's injectors, so
/// the composed chain carries each part's extra traffic additively.
pub struct ComposedScenario {
    label: String,
    parts: Vec<Arc<dyn ScenarioSpec>>,
}

impl ComposedScenario {
    /// Composes `parts` (label: the parts' names `+`-joined).
    pub fn new(parts: Vec<Arc<dyn ScenarioSpec>>) -> Self {
        let label = parts.iter().map(|p| p.name()).collect::<Vec<_>>().join("+");
        ComposedScenario { label, parts }
    }
}

impl ScenarioSpec for ComposedScenario {
    fn name(&self) -> &str {
        &self.label
    }

    fn injectors(&self, base: &GeneratorConfig) -> Vec<Box<dyn TrafficInjector>> {
        self.parts.iter().flat_map(|p| p.injectors(base)).collect()
    }
}

/// A scenario factory: builds a spec from parsed parameters.
pub type ScenarioFactory =
    dyn Fn(&StrategyParams) -> Result<Arc<dyn ScenarioSpec>, StrategyError> + Send + Sync;

enum EntryKind {
    Factory(Arc<ScenarioFactory>),
    /// Late-bound alias: normalized key of the target entry.
    Alias(String),
}

struct Entry {
    key: String,
    display: String,
    description: String,
    params_help: String,
    kind: EntryKind,
}

/// Name → scenario resolution, the workload-side mirror of
/// [`StrategyRegistry`](crate::StrategyRegistry).
///
/// Lookup is case-insensitive and ignores `-`/`_`; spec strings may
/// parameterize the scenario (`hub-burst[contracts=3;intensity=1.2]`).
///
/// # Examples
///
/// ```
/// use blockpart_core::ScenarioRegistry;
/// use blockpart_ethereum::gen::GeneratorConfig;
///
/// let reg = ScenarioRegistry::with_builtins();
/// let scenario = reg.resolve("hub-burst[contracts=3]").unwrap();
/// assert_eq!(scenario.name(), "hub-burst[contracts=3]");
/// let chain = scenario.build(&GeneratorConfig::test_scale(7).with_scale(0.005));
/// assert!(chain.log.len() > 0);
/// ```
pub struct ScenarioRegistry {
    entries: Vec<Entry>,
}

impl std::fmt::Debug for ScenarioRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioRegistry")
            .field("scenarios", &self.names())
            .finish()
    }
}

/// Builds the registry label for a built-in: the display name with the
/// canonical parameter string embedded when parameters were given.
fn label_of(display: &str, params: &StrategyParams) -> String {
    if params.is_empty() {
        display.to_string()
    } else {
        format!("{display}[{}]", params.canonical_string())
    }
}

impl ScenarioRegistry {
    /// An empty registry (no built-ins).
    pub fn empty() -> Self {
        ScenarioRegistry {
            entries: Vec::new(),
        }
    }

    /// A registry with the built-in scenarios: the friendly baseline,
    /// the paper's two historical anomalies (`hub-burst`, `dummy-spam`)
    /// and their modern descendants (`dex-arb`, `aa-batch`, `nft-mint`,
    /// `phase-shift`).
    pub fn with_builtins() -> Self {
        let mut reg = ScenarioRegistry::empty();
        reg.register_factory(
            "friendly",
            "the unmodified organic chain (the paper's easy case)",
            "",
            |params| {
                params.ensure_known_as("scenario", "friendly", &[])?;
                Ok(Arc::new(BuiltinScenario {
                    label: "friendly".to_string(),
                    kind: ScenarioKind::Friendly,
                    span: SpanParams::default(),
                }))
            },
        );
        reg.register_alias("baseline", "friendly");
        reg.register_factory(
            "hub-burst",
            "2017-style ICO/token-mint burst: crowdsale hubs absorb traffic",
            "contracts=<n>, intensity=<f>, start=<days>, duration=<days>",
            |params| {
                let allowed = ["contracts", "intensity", "start", "duration"];
                params.ensure_known_as("scenario", "hub-burst", &allowed)?;
                Ok(Arc::new(BuiltinScenario {
                    label: label_of("hub-burst", params),
                    kind: ScenarioKind::HubBurst {
                        contracts: count(params, "contracts", 3)?,
                        intensity: intensity(params, 0.9)?,
                    },
                    span: SpanParams::parse(params)?,
                }))
            },
        );
        reg.register_alias("ico-burst", "hub-burst");
        reg.register_factory(
            "dummy-spam",
            "2016-style attack: one-shot accounts inflate the vertex count",
            "intensity=<f>, start=<days>, duration=<days>",
            |params| {
                let allowed = ["intensity", "start", "duration"];
                params.ensure_known_as("scenario", "dummy-spam", &allowed)?;
                Ok(Arc::new(BuiltinScenario {
                    label: label_of("dummy-spam", params),
                    kind: ScenarioKind::DummySpam {
                        intensity: intensity(params, 1.2)?,
                    },
                    span: SpanParams::parse(params)?,
                }))
            },
        );
        reg.register_factory(
            "dex-arb",
            "DEX/arbitrage searcher bundles stitching pools through bots",
            "pools=<n>, bundle=<n>, intensity=<f>, start=<days>, duration=<days>",
            |params| {
                let allowed = ["pools", "bundle", "intensity", "start", "duration"];
                params.ensure_known_as("scenario", "dex-arb", &allowed)?;
                Ok(Arc::new(BuiltinScenario {
                    label: label_of("dex-arb", params),
                    kind: ScenarioKind::DexArb {
                        pools: count(params, "pools", 6)?,
                        bundle: count(params, "bundle", 4)?,
                        intensity: intensity(params, 0.5)?,
                    },
                    span: SpanParams::parse(params)?,
                }))
            },
        );
        reg.register_factory(
            "aa-batch",
            "account-abstraction batches: bundler entry points as super-hubs",
            "bundlers=<n>, batch=<n>, intensity=<f>, start=<days>, duration=<days>",
            |params| {
                let allowed = ["bundlers", "batch", "intensity", "start", "duration"];
                params.ensure_known_as("scenario", "aa-batch", &allowed)?;
                Ok(Arc::new(BuiltinScenario {
                    label: label_of("aa-batch", params),
                    kind: ScenarioKind::AaBatch {
                        bundlers: count(params, "bundlers", 4)?,
                        batch: count(params, "batch", 8)?,
                        intensity: intensity(params, 0.5)?,
                    },
                    span: SpanParams::parse(params)?,
                }))
            },
        );
        reg.register_factory(
            "nft-mint",
            "NFT mint stampedes: fresh hubs appear in short drop windows",
            "drops=<n>, intensity=<f>, start=<days>, duration=<days>",
            |params| {
                let allowed = ["drops", "intensity", "start", "duration"];
                params.ensure_known_as("scenario", "nft-mint", &allowed)?;
                Ok(Arc::new(BuiltinScenario {
                    label: label_of("nft-mint", params),
                    kind: ScenarioKind::NftMint {
                        drops: count(params, "drops", 4)?,
                        intensity: intensity(params, 3.0)?,
                    },
                    span: SpanParams::parse(params)?,
                }))
            },
        );
        reg.register_factory(
            "phase-shift",
            "hub identity rotates mid-stream: the TR-METIS trigger stressor",
            "phases=<n>, intensity=<f>, start=<days>, duration=<days>",
            |params| {
                let allowed = ["phases", "intensity", "start", "duration"];
                params.ensure_known_as("scenario", "phase-shift", &allowed)?;
                Ok(Arc::new(BuiltinScenario {
                    label: label_of("phase-shift", params),
                    kind: ScenarioKind::PhaseShift {
                        phases: count(params, "phases", 6)?,
                        intensity: intensity(params, 0.9)?,
                    },
                    span: SpanParams::parse(params)?,
                }))
            },
        );
        reg
    }

    /// Registers a fixed scenario under `name`, replacing any existing
    /// entry with the same (normalized) name. The spec rejects
    /// parameters; use [`register_factory`](Self::register_factory) for
    /// parameterized scenarios.
    pub fn register(&mut self, name: &str, description: &str, spec: Arc<dyn ScenarioSpec>) {
        let owned_name = name.to_string();
        self.register_factory(name, description, "", move |params| {
            params.ensure_known_as("scenario", &owned_name, &[])?;
            Ok(Arc::clone(&spec))
        });
    }

    /// Registers a parameterized scenario factory under `name`,
    /// replacing any existing entry with the same (normalized) name.
    pub fn register_factory(
        &mut self,
        name: &str,
        description: &str,
        params_help: &str,
        factory: impl Fn(&StrategyParams) -> Result<Arc<dyn ScenarioSpec>, StrategyError>
            + Send
            + Sync
            + 'static,
    ) {
        let key = normalize_name(name);
        assert!(!key.is_empty(), "scenario name must be non-empty");
        self.entries.retain(|e| e.key != key);
        self.entries.push(Entry {
            key,
            display: name.trim().to_string(),
            description: description.to_string(),
            params_help: params_help.to_string(),
            kind: EntryKind::Factory(Arc::new(factory)),
        });
    }

    /// Registers `alias` to resolve exactly like `target` (late-bound:
    /// re-registering `target` retargets the alias too).
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
        assert!(!key.is_empty(), "scenario name must be non-empty");
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

    /// The registered scenario names in registration order, aliases
    /// included.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.display.as_str()).collect()
    }

    /// The display names of the registered factories (no aliases), in
    /// registration order — "every built-in scenario" for sweeps.
    pub fn factory_names(&self) -> Vec<&str> {
        self.entries
            .iter()
            .filter(|e| matches!(e.kind, EntryKind::Factory(_)))
            .map(|e| e.display.as_str())
            .collect()
    }

    /// Resolves one spec string: `name` or `name[key=value;key=value]`.
    pub fn resolve(&self, spec: &str) -> Result<Arc<dyn ScenarioSpec>, StrategyError> {
        let spec = spec.trim();
        let (name, params) = match spec.split_once('[') {
            None => (spec, StrategyParams::default()),
            Some((name, rest)) => {
                let Some(body) = rest.strip_suffix(']') else {
                    return Err(StrategyError::new(format!(
                        "unclosed `[` in scenario spec `{spec}`"
                    )));
                };
                (name.trim(), StrategyParams::parse(body)?)
            }
        };
        let Some(entry) = self.entry(name) else {
            return Err(StrategyError::new(format!(
                "unknown scenario `{name}` (registered: {})",
                self.names().join(", ")
            )));
        };
        (self.factory_of(entry)?)(&params)
    }

    /// The factory behind an entry, following one alias hop.
    fn factory_of<'e>(&'e self, entry: &'e Entry) -> Result<&'e ScenarioFactory, StrategyError> {
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

    /// Resolves a comma-separated list of spec strings (commas inside
    /// `[...]` do not split); `all` expands to every registered factory
    /// unless a scenario was registered under that name. An empty list
    /// is an error.
    pub fn resolve_list(&self, specs: &str) -> Result<Vec<Arc<dyn ScenarioSpec>>, StrategyError> {
        let mut out: Vec<Arc<dyn ScenarioSpec>> = Vec::new();
        for part in split_top_level(specs) {
            if normalize_name(&part) == "all" && !self.contains("all") {
                for name in self.factory_names() {
                    out.push(self.resolve(name)?);
                }
            } else {
                out.push(self.resolve(&part)?);
            }
        }
        if out.is_empty() {
            return Err(StrategyError::new(format!(
                "empty scenario list `{specs}` (registered: {})",
                self.names().join(", ")
            )));
        }
        Ok(out)
    }

    /// Resolves a `+`-separated composition (`hub-burst+dummy-spam`)
    /// into a single scenario; a lone spec resolves directly.
    pub fn compose(&self, specs: &str) -> Result<Arc<dyn ScenarioSpec>, StrategyError> {
        let parts: Vec<&str> = specs.split('+').filter(|p| !p.trim().is_empty()).collect();
        match parts.len() {
            0 => Err(StrategyError::new(format!(
                "empty scenario spec `{specs}` (registered: {})",
                self.names().join(", ")
            ))),
            1 => self.resolve(parts[0]),
            _ => {
                let resolved = parts
                    .iter()
                    .map(|p| self.resolve(p))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Arc::new(ComposedScenario::new(resolved)))
            }
        }
    }

    /// Renders the registry as a help table (scenario, parameters,
    /// description).
    pub fn help_table(&self) -> Table {
        let mut t = Table::new(vec!["scenario", "parameters", "description"]);
        for e in &self.entries {
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

impl Default for ScenarioRegistry {
    fn default() -> Self {
        ScenarioRegistry::with_builtins()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GeneratorConfig {
        GeneratorConfig::test_scale(17).with_scale(0.005)
    }

    /// `unwrap_err` needs `T: Debug`, which trait objects don't have.
    fn err_of(r: Result<Arc<dyn ScenarioSpec>, StrategyError>) -> String {
        match r {
            Err(e) => e.to_string(),
            Ok(s) => panic!("unexpectedly resolved `{}`", s.name()),
        }
    }

    #[test]
    fn builtins_register_the_advertised_scenarios() {
        let reg = ScenarioRegistry::with_builtins();
        for name in [
            "friendly",
            "hub-burst",
            "dummy-spam",
            "dex-arb",
            "aa-batch",
            "nft-mint",
            "phase-shift",
        ] {
            assert!(reg.contains(name), "{name} missing");
        }
        assert!(reg.factory_names().len() >= 7);
        // aliases resolve but are not factories
        assert!(reg.contains("baseline"));
        assert!(reg.contains("ico-burst"));
        assert!(!reg.factory_names().contains(&"baseline"));
    }

    #[test]
    fn lookup_is_case_and_dash_insensitive() {
        let reg = ScenarioRegistry::with_builtins();
        for spelling in ["hub-burst", "HUB_BURST", "hubburst"] {
            assert_eq!(reg.resolve(spelling).unwrap().name(), "hub-burst");
        }
    }

    #[test]
    fn labels_embed_canonical_params() {
        let reg = ScenarioRegistry::with_builtins();
        let s = reg.resolve("hub-burst[intensity=1.5;contracts=2]").unwrap();
        assert_eq!(s.name(), "hub-burst[contracts=2;intensity=1.5]");
    }

    #[test]
    fn unknown_names_and_params_error() {
        let reg = ScenarioRegistry::with_builtins();
        let err = err_of(reg.resolve("no-such"));
        assert!(err.contains("unknown scenario"), "{err}");
        let err = err_of(reg.resolve("friendly[x=1]"));
        assert!(
            err.contains("scenario `friendly` does not take parameter `x`"),
            "{err}"
        );
        let err = err_of(reg.resolve("hub-burst[contracts=0]"));
        assert!(err.contains("positive integer"), "{err}");
    }

    #[test]
    fn out_of_range_numbers_are_rejected() {
        let reg = ScenarioRegistry::with_builtins();
        for (spec, key) in [
            ("hub-burst[intensity=inf]", "intensity"),
            ("dummy-spam[intensity=1e300]", "intensity"),
            ("dex-arb[intensity=100.5]", "intensity"),
            ("aa-batch[intensity=-0.5]", "intensity"),
            ("phase-shift[intensity=NaN]", "intensity"),
            ("hub-burst[start=1e300]", "start"),
            ("nft-mint[duration=inf]", "duration"),
            ("hub-burst[contracts=18446744073709551615]", "contracts"),
            ("dex-arb[pools=1001]", "pools"),
            ("dex-arb[bundle=4096]", "bundle"),
            ("aa-batch[bundlers=1001]", "bundlers"),
            ("aa-batch[batch=1000000]", "batch"),
            ("nft-mint[drops=1001]", "drops"),
            ("phase-shift[phases=1001]", "phases"),
        ] {
            let err = err_of(reg.resolve(spec));
            assert!(
                err.starts_with(&format!("parameter `{key}`")),
                "{spec}: {err}"
            );
        }
        let err = err_of(reg.resolve("nft-mint[drops=1001]"));
        assert_eq!(err, "parameter `drops`: `1001` is outside [1, 1000]");
        for spec in [
            "nft-mint[intensity=0]",
            "hub-burst[intensity=100]",
            "hub-burst[contracts=1000]",
            "dex-arb[pools=1000;bundle=1000]",
            "aa-batch[bundlers=1000;batch=1000]",
            "nft-mint[drops=1000]",
            "phase-shift[phases=1000]",
        ] {
            assert!(reg.resolve(spec).is_ok(), "{spec}");
        }
    }

    #[test]
    fn all_expands_to_factories() {
        let reg = ScenarioRegistry::with_builtins();
        let list = reg.resolve_list("all").unwrap();
        assert_eq!(list.len(), reg.factory_names().len());
        assert!(reg.resolve_list("").is_err());
    }

    #[test]
    fn scenarios_add_traffic_and_friendly_does_not() {
        let reg = ScenarioRegistry::with_builtins();
        let base = ChainGenerator::new(cfg()).generate();
        let friendly = reg.resolve("friendly").unwrap().build(&cfg());
        assert_eq!(friendly.log.events(), base.log.events());
        let hostile = reg.resolve("hub-burst").unwrap().build(&cfg());
        assert!(hostile.chain.tx_count() > base.chain.tx_count());
    }

    #[test]
    fn composition_concatenates_injectors() {
        let reg = ScenarioRegistry::with_builtins();
        let composed = reg.compose("hub-burst+dummy-spam").unwrap();
        assert_eq!(composed.name(), "hub-burst+dummy-spam");
        assert_eq!(composed.injectors(&cfg()).len(), 2);
        // a lone spec composes to itself
        assert_eq!(reg.compose("friendly").unwrap().name(), "friendly");
        assert!(reg.compose("").is_err());
    }

    #[test]
    fn user_registration_shadows_and_extends() {
        let mut reg = ScenarioRegistry::with_builtins();
        let custom = reg.resolve("dummy-spam[intensity=9]").unwrap();
        reg.register("my-storm", "a custom storm", custom);
        assert!(reg.contains("my-storm"));
        assert_eq!(
            reg.resolve("my-storm").unwrap().name(),
            "dummy-spam[intensity=9]"
        );
        let err = err_of(reg.resolve("my-storm[x=1]"));
        assert!(err.contains("scenario `my-storm`"), "{err}");
    }

    #[test]
    fn span_params_shift_the_hostile_window() {
        let reg = ScenarioRegistry::with_builtins();
        let late = reg
            .resolve("dummy-spam[start=12;duration=2]")
            .unwrap()
            .build(&cfg());
        let base = ChainGenerator::new(cfg()).generate();
        let cut = Timestamp::from_secs(12 * 86_400);
        let before_late = late.txs.iter().filter(|t| t.time < cut).count();
        let before_base = base.txs.iter().filter(|t| t.time < cut).count();
        assert_eq!(before_late, before_base);
        assert!(late.txs.len() > base.txs.len());
    }

    #[test]
    fn help_table_lists_every_entry() {
        let reg = ScenarioRegistry::with_builtins();
        let rendered = reg.help_table().to_string();
        for name in reg.names() {
            assert!(rendered.contains(name), "{name} missing from help");
        }
    }
}
