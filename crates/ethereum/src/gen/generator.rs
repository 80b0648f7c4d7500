//! The chain generator: drives era-shaped transaction batches through the
//! EVM and collects the interaction log.

use std::convert::Infallible;

use blockpart_graph::{Interaction, InteractionLog};
use blockpart_types::{Duration, Gas, Timestamp, Wei};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::block::BlockSummary;
use crate::chain::{Chain, SyntheticChain};
use crate::gen::era::EraTimeline;
use crate::gen::inject::{InjectCtx, TrafficInjector};
use crate::gen::workload::Population;
use crate::program::ContractTemplate;
use crate::state::World;
use crate::transaction::{ExecutedTx, Transaction, TxPayload};

/// Receives the generator's output one block at a time.
///
/// [`ChainGenerator::generate_into`] hands each executed block to the
/// sink as it is produced — the block's summary, its interaction events
/// (time-ordered) and its executed transactions — and drops them before
/// the next block is built. A sink that writes to disk (e.g. the segment
/// store in `blockpart-storage`) therefore bounds generation memory at
/// `O(block)` plus the world state, instead of `O(chain)`.
pub trait BlockSink {
    /// The sink's failure type (`Infallible` for in-memory collectors).
    type Error;

    /// Consumes one executed block.
    fn block(
        &mut self,
        summary: &BlockSummary,
        events: &[Interaction],
        txs: &[ExecutedTx],
    ) -> Result<(), Self::Error>;
}

/// The collecting sink behind [`ChainGenerator::generate`]: accumulates
/// every block back into the resident `SyntheticChain` shape.
struct CollectSink {
    log: InteractionLog,
    txs: Vec<ExecutedTx>,
}

impl BlockSink for CollectSink {
    type Error = Infallible;

    fn block(
        &mut self,
        _summary: &BlockSummary,
        events: &[Interaction],
        txs: &[ExecutedTx],
    ) -> Result<(), Infallible> {
        for &e in events {
            self.log.push(e);
        }
        self.txs.extend(txs.iter().cloned());
        Ok(())
    }
}

/// Configuration for [`ChainGenerator`].
///
/// `scale` multiplies the timeline's full-scale transaction rates: `1.0`
/// reproduces tens of millions of events (hours of CPU, gigabytes of log);
/// the canned constructors pick sensible sizes for tests, demos and
/// benchmarks.
///
/// # Examples
///
/// ```
/// use blockpart_ethereum::gen::GeneratorConfig;
///
/// let cfg = GeneratorConfig::test_scale(1);
/// assert!(cfg.scale > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct GeneratorConfig {
    /// RNG seed: the same seed always produces the same chain.
    pub seed: u64,
    /// Fraction of the full-scale transaction rate to generate, in
    /// (0, 1].
    pub scale: f64,
    /// The era timeline to replay.
    pub timeline: EraTimeline,
    /// Simulated time per generated block. The default of 4 hours matches
    /// the paper's measurement windows.
    pub block_interval: Duration,
    /// Initial balance handed to each new user.
    pub endowment: Wei,
}

impl GeneratorConfig {
    /// Full 30-month history at a scale suitable for interactive demos
    /// (roughly 10⁵ transactions, a couple of seconds of CPU).
    pub fn demo_scale(seed: u64) -> Self {
        GeneratorConfig {
            seed,
            scale: 1.2e-3,
            timeline: EraTimeline::ethereum_history(),
            block_interval: Duration::hours(4),
            endowment: Wei::new(1_000_000_000),
        }
    }

    /// Full 30-month history at benchmark scale (roughly 10⁶
    /// transactions).
    pub fn bench_scale(seed: u64) -> Self {
        GeneratorConfig {
            scale: 1.0e-2,
            ..GeneratorConfig::demo_scale(seed)
        }
    }

    /// A 14-day two-era toy history for unit tests (a few thousand
    /// transactions, milliseconds).
    pub fn test_scale(seed: u64) -> Self {
        GeneratorConfig {
            seed,
            scale: 0.02,
            timeline: EraTimeline::short_test(),
            block_interval: Duration::hours(4),
            endowment: Wei::new(1_000_000_000),
        }
    }

    /// Overrides the scale.
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Overrides the timeline.
    pub fn with_timeline(mut self, timeline: EraTimeline) -> Self {
        self.timeline = timeline;
        self
    }
}

/// Generates a [`SyntheticChain`] by sampling era-appropriate transactions
/// and executing them block by block.
///
/// # Examples
///
/// ```
/// use blockpart_ethereum::gen::{ChainGenerator, GeneratorConfig};
///
/// let s1 = ChainGenerator::new(GeneratorConfig::test_scale(3)).generate();
/// let s2 = ChainGenerator::new(GeneratorConfig::test_scale(3)).generate();
/// assert_eq!(s1.log.len(), s2.log.len()); // fully deterministic
/// ```
#[derive(Debug)]
pub struct ChainGenerator {
    config: GeneratorConfig,
    rng: SmallRng,
    population: Population,
    injectors: Vec<Box<dyn TrafficInjector>>,
}

/// Deferred bookkeeping for transactions whose effects are only known
/// after execution.
enum Post {
    None,
    /// Register contracts created by this transaction; for crowdsales,
    /// wire slot 0/1 to a real beneficiary and token.
    Deploy {
        beneficiary: blockpart_types::Address,
        token: Option<blockpart_types::Address>,
    },
}

impl ChainGenerator {
    /// Creates a generator.
    pub fn new(config: GeneratorConfig) -> Self {
        let rng = SmallRng::seed_from_u64(config.seed);
        ChainGenerator {
            config,
            rng,
            population: Population::new(),
            injectors: Vec::new(),
        }
    }

    /// Adds an adversarial traffic injector; its transactions are
    /// appended to each block after the organic workload (injectors run
    /// in registration order, so the output stays deterministic).
    pub fn with_injector(mut self, injector: Box<dyn TrafficInjector>) -> Self {
        self.injectors.push(injector);
        self
    }

    /// Runs the whole timeline and returns the chain plus its log.
    ///
    /// Memory contract: `O(chain)` — the log and transaction list are
    /// collected resident. At large `--scale`, stream through
    /// [`generate_into`](Self::generate_into) instead.
    pub fn generate(self) -> SyntheticChain {
        let mut sink = CollectSink {
            log: InteractionLog::new(),
            txs: Vec::new(),
        };
        let chain = match self.generate_into(&mut sink) {
            Ok(chain) => chain,
            Err(infallible) => match infallible {},
        };
        SyntheticChain {
            chain,
            log: sink.log,
            txs: sink.txs,
        }
    }

    /// Runs the whole timeline, handing each executed block to `sink` as
    /// it is produced, and returns the final [`Chain`] (world state plus
    /// block summaries).
    ///
    /// Memory contract: `O(block)` transient state per block plus the
    /// world and population — the whole-chain log and transaction vectors
    /// are never materialized here. [`generate`](Self::generate) is this
    /// method run into a collecting sink, so for any given config the
    /// block/event/transaction sequence a sink observes is byte-identical
    /// to the resident `SyntheticChain` fields.
    pub fn generate_into<S: BlockSink>(mut self, sink: &mut S) -> Result<Chain, S::Error> {
        let mut chain = Chain::new(self.config.seed ^ 0xb10c);

        self.genesis(chain.world_mut());

        let end = self.config.timeline.end();
        let step = self.config.block_interval;
        assert!(!step.is_zero(), "block interval must be non-zero");

        let mut t = Timestamp::EPOCH;
        let mut carry = 0.0f64;
        let mut blocks_since_compact = 0usize;
        let mut eip150_applied = false;
        let mut block_txs: Vec<ExecutedTx> = Vec::new();
        while t < end {
            if !eip150_applied && t >= EraTimeline::eip150_activation() {
                chain.set_gas_schedule(crate::evm::GasSchedule::eip150());
                eip150_applied = true;
            }
            let rate = self.config.timeline.rate_at(t) * self.config.scale;
            let expected = rate * step.as_secs() as f64 / 86_400.0 + carry;
            let n = expected.floor() as usize;
            carry = expected - n as f64;

            let mut txs = Vec::with_capacity(n);
            let mut posts = Vec::with_capacity(n);
            for _ in 0..n {
                let (tx, post) = self.build_tx(chain.world_mut(), t);
                txs.push(tx);
                posts.push(post);
            }
            for injector in &mut self.injectors {
                let mut ctx = InjectCtx {
                    world: chain.world_mut(),
                    population: &self.population,
                    now: t,
                    organic: n,
                };
                for tx in injector.inject(&mut ctx) {
                    txs.push(tx);
                    posts.push(Post::None);
                }
            }
            let submitted = txs.clone();
            // A fresh per-block log: `push` order within the block is the
            // same as appending to a whole-chain log, so collecting sinks
            // reconstruct the resident log exactly.
            let mut block_log = InteractionLog::new();
            block_txs.clear();
            let (summary, receipts) = chain.apply_block_with_receipts(t, txs, &mut block_log);
            for ((receipt, post), tx) in receipts.iter().zip(&posts).zip(&submitted) {
                self.register_created(chain.world_mut(), receipt, post);
                block_txs.push(ExecutedTx::new(t, *tx, receipt));
            }
            sink.block(&summary, block_log.events(), &block_txs)?;

            blocks_since_compact += 1;
            if blocks_since_compact >= 128 {
                self.population.compact(2_000_000);
                blocks_since_compact = 0;
            }
            t += step;
        }
        Ok(chain)
    }

    /// Seeds the world with an initial population and one contract of each
    /// template so every category is serviceable from block one.
    fn genesis(&mut self, world: &mut World) {
        let initial_users = 8 + (400.0 * self.config.scale.sqrt()) as usize;
        for _ in 0..initial_users {
            let u = world.new_user(self.config.endowment);
            self.population.add_user(u);
        }
        let owner = self
            .population
            .sample_user_uniform(&mut self.rng)
            .expect("genesis users exist");
        let token = world.create_contract(ContractTemplate::Token, owner, owner.index());
        self.population.add_contract(ContractTemplate::Token, token);
        for template in [
            ContractTemplate::Wallet,
            ContractTemplate::Game,
            ContractTemplate::Registry,
        ] {
            let c = world.create_contract(template, owner, owner.index());
            self.population.add_contract(template, c);
        }
        let factory = world.create_contract(
            ContractTemplate::Factory,
            owner,
            ContractTemplate::Token.id(),
        );
        self.population
            .add_contract(ContractTemplate::Factory, factory);
        let sale = world.create_contract(ContractTemplate::Crowdsale, owner, owner.index());
        world.storage_store(sale, 0, owner.index());
        world.storage_store(sale, 1, token.index());
        self.population
            .add_contract(ContractTemplate::Crowdsale, sale);
    }

    /// Samples one transaction according to the era mix at `t`.
    fn build_tx(&mut self, world: &mut World, t: Timestamp) -> (Transaction, Post) {
        let mix = self.config.timeline.era_at(t).mix;
        let roll = self.rng.gen::<f64>() * mix.total();
        let gas = Gas::new(400_000);

        let mut acc = mix.attack;
        if roll < acc {
            return (self.attack_tx(world, gas), Post::None);
        }
        acc += mix.transfer;
        if roll < acc {
            return (self.transfer_tx(world, gas), Post::None);
        }
        acc += mix.token;
        if roll < acc {
            if let Some(tx) = self.contract_call_tx(ContractTemplate::Token, world, gas) {
                return (tx, Post::None);
            }
        }
        acc += mix.ico;
        if roll < acc {
            if let Some(tx) = self.ico_tx(world, gas) {
                return (tx, Post::None);
            }
        }
        acc += mix.game;
        if roll < acc {
            if let Some(tx) = self.contract_call_tx(ContractTemplate::Game, world, gas) {
                return (tx, Post::None);
            }
        }
        acc += mix.wallet;
        if roll < acc {
            if let Some(tx) = self.contract_call_tx(ContractTemplate::Wallet, world, gas) {
                return (tx, Post::None);
            }
        }
        acc += mix.factory;
        if roll < acc {
            if let Some(tx) = self.contract_call_tx(ContractTemplate::Factory, world, gas) {
                return (tx, Post::None);
            }
        }
        acc += mix.registry;
        if roll < acc {
            if let Some(tx) = self.contract_call_tx(ContractTemplate::Registry, world, gas) {
                return (tx, Post::None);
            }
        }
        // deploy (also the fallback when a sampled category has no
        // contract yet)
        self.deploy_tx(world, gas)
    }

    fn transfer_tx(&mut self, world: &mut World, gas: Gas) -> Transaction {
        let from = self.sample_or_new_user(world, 0.05);
        let to = self.sample_or_new_user(world, 0.15);
        self.population.note_user_activity(from);
        self.population.note_user_activity(to);
        Transaction {
            from,
            to,
            value: Wei::new(self.rng.gen_range(1..1_000)),
            gas_limit: gas,
            payload: TxPayload::Transfer,
        }
    }

    /// One unit of the 2016 spam: a fresh, never-reused account touches
    /// either another fresh account or one of a handful of sink addresses.
    fn attack_tx(&mut self, world: &mut World, gas: Gas) -> Transaction {
        let from = world.new_user(Wei::new(1_000));
        let to = if self.rng.gen_bool(0.5) {
            world.new_user(Wei::ZERO)
        } else {
            // a sink: sample a real user so the spam also attaches noise
            // edges to the organic graph, as EXTCODESIZE spam did
            self.sample_or_new_user(world, 0.0)
        };
        // deliberately NOT registered in the population: used once, dead
        // forever — the METIS balance anomaly of the paper.
        Transaction {
            from,
            to,
            value: Wei::new(1),
            gas_limit: gas,
            payload: TxPayload::Transfer,
        }
    }

    fn contract_call_tx(
        &mut self,
        template: ContractTemplate,
        world: &mut World,
        gas: Gas,
    ) -> Option<Transaction> {
        let contract = self.population.sample_contract(template, &mut self.rng)?;
        let from = self.sample_or_new_user(world, 0.05);
        self.population.note_user_activity(from);
        self.population.note_contract_activity(template, contract);
        let arg = match template {
            // token transfer recipient / wallet destination: a real user
            ContractTemplate::Token | ContractTemplate::Wallet => {
                let dest = self.sample_or_new_user(world, 0.10);
                self.population.note_user_activity(dest);
                dest.index()
            }
            ContractTemplate::Registry => self.rng.gen::<u64>() | 0x8000_0000_0000_0000,
            _ => 0,
        };
        let value = match template {
            ContractTemplate::Game => self.rng.gen_range(10..500),
            ContractTemplate::Wallet => self.rng.gen_range(100..5_000),
            _ => 0,
        };
        Some(Transaction {
            from,
            to: contract,
            value: Wei::new(value),
            gas_limit: gas,
            payload: TxPayload::Call { arg },
        })
    }

    fn ico_tx(&mut self, world: &mut World, gas: Gas) -> Option<Transaction> {
        let sale = self
            .population
            .sample_contract_recent_biased(ContractTemplate::Crowdsale, &mut self.rng)?;
        let from = self.sample_or_new_user(world, 0.20);
        self.population.note_user_activity(from);
        self.population
            .note_contract_activity(ContractTemplate::Crowdsale, sale);
        Some(Transaction {
            from,
            to: sale,
            value: Wei::new(self.rng.gen_range(100..50_000)),
            gas_limit: gas,
            payload: TxPayload::Call { arg: 0 },
        })
    }

    fn deploy_tx(&mut self, world: &mut World, gas: Gas) -> (Transaction, Post) {
        let from = self.sample_or_new_user(world, 0.05);
        self.population.note_user_activity(from);
        let template = *pick_weighted(
            &mut self.rng,
            &[
                (ContractTemplate::Token, 30),
                (ContractTemplate::Crowdsale, 22),
                (ContractTemplate::Wallet, 20),
                (ContractTemplate::Game, 12),
                (ContractTemplate::Registry, 10),
                (ContractTemplate::Factory, 6),
            ],
        );
        let beneficiary = self.sample_or_new_user(world, 0.0);
        let token = self
            .population
            .sample_contract(ContractTemplate::Token, &mut self.rng);
        let arg = match template {
            ContractTemplate::Factory => pick_weighted(
                &mut self.rng,
                &[
                    (ContractTemplate::Token, 40),
                    (ContractTemplate::Registry, 30),
                    (ContractTemplate::Game, 30),
                ],
            )
            .id(),
            _ => beneficiary.index(),
        };
        (
            Transaction {
                from,
                to: blockpart_types::Address::ZERO,
                value: Wei::new(self.rng.gen_range(0..100)),
                gas_limit: gas,
                payload: TxPayload::Create {
                    template: template.id(),
                    arg,
                },
            },
            Post::Deploy { beneficiary, token },
        )
    }

    /// Registers contracts created during execution (deploy transactions
    /// and factory children) and wires fresh crowdsales.
    fn register_created(&mut self, world: &mut World, receipt: &crate::Receipt, post: &Post) {
        for &created in &receipt.created {
            let Some(state) = world.contract(created) else {
                continue;
            };
            let template = state.template;
            self.population.add_contract(template, created);
            if let (ContractTemplate::Crowdsale, Post::Deploy { beneficiary, token }) =
                (template, post)
            {
                world.storage_store(created, 0, beneficiary.index());
                if let Some(token) = token {
                    world.storage_store(created, 1, token.index());
                }
            }
        }
    }

    /// Samples an existing user by activity, or mints a new one with
    /// probability `p_new` (organic population growth).
    fn sample_or_new_user(&mut self, world: &mut World, p_new: f64) -> blockpart_types::Address {
        if !self.rng.gen_bool(p_new.clamp(0.0, 1.0).min(0.999_999)) {
            if let Some(u) = self.population.sample_user(&mut self.rng) {
                return u;
            }
        }
        let u = world.new_user(self.config.endowment);
        self.population.add_user(u);
        u
    }
}

fn pick_weighted<'a, T>(rng: &mut SmallRng, options: &'a [(T, u32)]) -> &'a T {
    let total: u32 = options.iter().map(|&(_, w)| w).sum();
    let mut roll = rng.gen_range(0..total);
    for (item, w) in options {
        if roll < *w {
            return item;
        }
        roll -= w;
    }
    &options.last().expect("non-empty options").0
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockpart_types::AccountKind;
    use std::collections::HashSet;

    fn small() -> SyntheticChain {
        ChainGenerator::new(GeneratorConfig::test_scale(7)).generate()
    }

    #[test]
    fn generates_nontrivial_chain() {
        let s = small();
        assert!(
            s.chain.block_count() > 50,
            "blocks: {}",
            s.chain.block_count()
        );
        assert!(s.log.len() > 2_000, "events: {}", s.log.len());
        assert!(s.chain.world().contract_count() > 5);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ChainGenerator::new(GeneratorConfig::test_scale(9)).generate();
        let b = ChainGenerator::new(GeneratorConfig::test_scale(9)).generate();
        assert_eq!(a.log.events(), b.log.events());
        assert_eq!(a.chain.tx_count(), b.chain.tx_count());
    }

    #[test]
    fn streamed_blocks_match_collected_chain() {
        struct Probe {
            events: Vec<Interaction>,
            txs: usize,
            blocks: Vec<blockpart_types::BlockNumber>,
        }
        impl BlockSink for Probe {
            type Error = Infallible;
            fn block(
                &mut self,
                summary: &BlockSummary,
                events: &[Interaction],
                txs: &[ExecutedTx],
            ) -> Result<(), Infallible> {
                self.events.extend_from_slice(events);
                self.txs += txs.len();
                self.blocks.push(summary.number);
                Ok(())
            }
        }
        let collected = ChainGenerator::new(GeneratorConfig::test_scale(9)).generate();
        let mut probe = Probe {
            events: Vec::new(),
            txs: 0,
            blocks: Vec::new(),
        };
        let chain = ChainGenerator::new(GeneratorConfig::test_scale(9))
            .generate_into(&mut probe)
            .unwrap();
        assert_eq!(probe.events, collected.log.events());
        assert_eq!(probe.txs, collected.txs.len());
        assert_eq!(chain.tx_count(), collected.chain.tx_count());
        assert_eq!(probe.blocks.len(), collected.chain.block_count());
        assert!(probe.blocks.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn different_seeds_differ() {
        let a = ChainGenerator::new(GeneratorConfig::test_scale(1)).generate();
        let b = ChainGenerator::new(GeneratorConfig::test_scale(2)).generate();
        assert_ne!(a.log.events(), b.log.events());
    }

    #[test]
    fn log_is_time_ordered_and_bounded() {
        let s = small();
        let end = GeneratorConfig::test_scale(7).timeline.end();
        let mut last = Timestamp::EPOCH;
        for e in s.log.events() {
            assert!(e.time >= last);
            assert!(e.time < end);
            last = e.time;
        }
    }

    #[test]
    fn graph_is_heavy_tailed() {
        let s = small();
        let g = s
            .log
            .graph_until(GeneratorConfig::test_scale(7).timeline.end());
        let csr = g.to_csr();
        let stats = blockpart_graph::algos::DegreeStats::of(&csr);
        // hubs exist: max degree far above the mean
        assert!(
            stats.max as f64 > stats.mean * 20.0,
            "max {} mean {}",
            stats.max,
            stats.mean
        );
    }

    #[test]
    fn contracts_appear_in_log() {
        let s = small();
        let has_contract_edge = s
            .log
            .events()
            .iter()
            .any(|e| e.to_kind == AccountKind::Contract);
        let has_internal_edge = s
            .log
            .events()
            .iter()
            .any(|e| e.from_kind == AccountKind::Contract);
        assert!(has_contract_edge, "no user->contract edges");
        assert!(has_internal_edge, "no contract-originated edges");
    }

    #[test]
    fn scale_controls_volume() {
        let small =
            ChainGenerator::new(GeneratorConfig::test_scale(5).with_scale(0.005)).generate();
        let large = ChainGenerator::new(GeneratorConfig::test_scale(5).with_scale(0.02)).generate();
        assert!(large.log.len() > 2 * small.log.len());
    }

    #[test]
    fn attack_era_inflates_vertex_count() {
        // a custom timeline: organic era then attack era, same rates
        use crate::gen::era::{Era, TxMix};
        let tl = EraTimeline::new(vec![
            Era {
                name: "organic",
                start: Timestamp::EPOCH,
                end: Timestamp::from_secs(5 * 86_400),
                rate_start: 20_000.0,
                rate_end: 20_000.0,
                mix: TxMix::homestead(),
            },
            Era {
                name: "attack",
                start: Timestamp::from_secs(5 * 86_400),
                end: Timestamp::from_secs(10 * 86_400),
                rate_start: 20_000.0,
                rate_end: 20_000.0,
                mix: TxMix::attack(),
            },
        ]);
        let cfg = GeneratorConfig {
            seed: 11,
            scale: 0.02,
            timeline: tl,
            block_interval: Duration::hours(4),
            endowment: Wei::new(1_000_000),
        };
        let s = ChainGenerator::new(cfg).generate();
        let mid = Timestamp::from_secs(5 * 86_400);
        let organic: HashSet<_> = s
            .log
            .window(Timestamp::EPOCH, mid)
            .iter()
            .flat_map(|e| [e.from, e.to])
            .collect();
        let attack: HashSet<_> = s
            .log
            .window(mid, Timestamp::from_secs(10 * 86_400))
            .iter()
            .flat_map(|e| [e.from, e.to])
            .collect();
        // same tx volume, but the attack mints far more distinct vertices
        assert!(
            attack.len() as f64 > organic.len() as f64 * 2.0,
            "organic {} attack {}",
            organic.len(),
            attack.len()
        );
    }
}
