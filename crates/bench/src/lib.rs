//! Shared scaffolding for the figure-regeneration binaries and the
//! [`perf`] measurement harness.
//!
//! Each `fig*` binary regenerates one figure of the paper from a synthetic
//! chain. All binaries honour two environment variables:
//!
//! * `BLOCKPART_SCALE` — fraction of the full-scale transaction rate
//!   (default `0.0012`, the demo scale; the paper-shaped results are
//!   stable from about `0.001` up);
//! * `BLOCKPART_SEED` — generator/partitioner seed (default `42`).
//!
//! ```sh
//! cargo run -p blockpart-bench --release --bin fig5
//! BLOCKPART_SCALE=0.005 cargo run -p blockpart-bench --release --bin fig4
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod perf;
pub mod scenario_matrix;

use blockpart_ethereum::gen::{ChainGenerator, GeneratorConfig};
use blockpart_ethereum::SyntheticChain;

/// Reads `BLOCKPART_SCALE` (default `0.0012`, also when the value is not
/// in (0, 1], the range of [`GeneratorConfig::scale`]).
pub fn scale_from_env() -> f64 {
    std::env::var("BLOCKPART_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s: &f64| s > 0.0 && s <= 1.0)
        .unwrap_or(0.0012)
}

/// Reads `BLOCKPART_SEED` (default `42`).
pub fn seed_from_env() -> u64 {
    std::env::var("BLOCKPART_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Generates the full 30-month synthetic history at the environment's
/// scale and seed, printing a short provenance header.
pub fn generate_history() -> SyntheticChain {
    let scale = scale_from_env();
    let seed = seed_from_env();
    eprintln!("# generating 30-month history: scale={scale} seed={seed}");
    let config = GeneratorConfig::demo_scale(seed).with_scale(scale);
    let chain = ChainGenerator::new(config).generate();
    eprintln!(
        "# {} blocks, {} txs, {} interactions, {} accounts, {} contracts",
        chain.chain.block_count(),
        chain.chain.tx_count(),
        chain.log.len(),
        chain.chain.world().account_count(),
        chain.chain.world().contract_count(),
    );
    chain
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        // do not set the vars: defaults apply
        assert!(scale_from_env() > 0.0);
        let _ = seed_from_env();
    }
}
