//! Contract templates and their EVM-lite programs.
//!
//! Real Ethereum contracts cluster into a few behavioural archetypes that
//! shape the blockchain graph very differently: tokens (hub vertices with
//! huge in-degree, no internal calls), crowdsales (fan-out: forward funds
//! and mint), wallets (relays), factories (create many children — the
//! paper's Fig. 2 contract 9703), games (occasional payouts to past
//! players) and registries (storage-heavy, no calls). Each template below
//! has one small static program exercising exactly that pattern.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::evm::Op;

/// The behavioural archetypes contracts are instantiated from.
///
/// Storage layout conventions used by the programs:
///
/// | slot | meaning |
/// |------|---------|
/// | 0    | primary address parameter (owner / beneficiary / last winner) |
/// | 1    | secondary parameter (token address / counter / pot) |
/// | 2    | accumulator (raised amount) |
///
/// # Examples
///
/// ```
/// use blockpart_ethereum::ContractTemplate;
///
/// let t = ContractTemplate::from_id(0).unwrap();
/// assert_eq!(t, ContractTemplate::Token);
/// assert_eq!(t.id(), 0);
/// assert!(ContractTemplate::from_id(99).is_none());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ContractTemplate {
    /// ERC20-style token: balance bookkeeping in storage, no internal
    /// calls. Becomes a high-in-degree hub vertex.
    Token,
    /// ICO crowdsale: stores the contribution, forwards the ether to a
    /// beneficiary (slot 0) and calls the token contract (slot 1).
    Crowdsale,
    /// Simple wallet: relays the received ether to the argument address.
    Wallet,
    /// Factory: every call creates a child contract (slot 0 holds the
    /// child template id, slot 1 counts children).
    Factory,
    /// Gambling game: accumulates a pot (slot 1) and pays it out to the
    /// previous winner (slot 0) on a pseudo-random 1-in-4 roll.
    Game,
    /// Name registry: pure storage writes, no calls, no transfers.
    Registry,
}

impl ContractTemplate {
    /// All templates, in id order.
    pub const ALL: [ContractTemplate; 6] = [
        ContractTemplate::Token,
        ContractTemplate::Crowdsale,
        ContractTemplate::Wallet,
        ContractTemplate::Factory,
        ContractTemplate::Game,
        ContractTemplate::Registry,
    ];

    /// The template's stable numeric id (used by `CREATE` on the stack).
    pub fn id(self) -> u64 {
        match self {
            ContractTemplate::Token => 0,
            ContractTemplate::Crowdsale => 1,
            ContractTemplate::Wallet => 2,
            ContractTemplate::Factory => 3,
            ContractTemplate::Game => 4,
            ContractTemplate::Registry => 5,
        }
    }

    /// Looks a template up by id.
    pub fn from_id(id: u64) -> Option<ContractTemplate> {
        ContractTemplate::ALL.get(id as usize).copied()
    }

    /// The template's program: one static op list, shared by every
    /// contract of the template, so neither a call nor a state snapshot
    /// copies code.
    ///
    /// Calling convention: the callee starts with its single argument word
    /// on the stack; `SStore` pops value then key; `Transfer` pops value
    /// then target; `Call` pops argument, value, then target; `Create`
    /// pops endowment then template id.
    ///
    /// # Examples
    ///
    /// ```
    /// use blockpart_ethereum::evm::Op;
    /// use blockpart_ethereum::ContractTemplate;
    ///
    /// let ops = ContractTemplate::Wallet.program();
    /// assert_eq!(ops.last(), Some(&Op::Stop));
    /// ```
    pub fn program(self) -> &'static [Op] {
        use Op::*;
        match self {
            // start stack: [arg = recipient index]
            ContractTemplate::Token => &[
                Caller,    // [arg, caller]
                CallValue, // [arg, caller, value]
                SStore,    // storage[caller] = value      [arg]
                Dup(0),    // [arg, arg]
                SLoad,     // [arg, bal]
                Push(1),   // [arg, bal, 1]
                Add,       // [arg, bal+1]
                SStore,    // storage[arg] = bal + 1       []
                Push(0),
                Log, // emit Transfer event
                Stop,
            ],
            // start stack: [arg] (ignored)
            ContractTemplate::Crowdsale => &[
                Pop,
                Push(2),
                SLoad,     // [raised]
                CallValue, // [raised, value]
                Add,       // [raised+value]
                Push(2),   // [raised+value, 2]
                Swap(1),   // [2, raised+value]
                SStore,    // storage[2] += value
                Push(0),
                SLoad,     // [beneficiary]
                CallValue, // [beneficiary, value]
                Transfer,  // forward the funds
                Push(1),
                SLoad,   // [token]
                Push(0), // [token, 0]
                Caller,  // [token, 0, caller]
                Call,    // mint: token.call(arg = contributor)
                Pop,
                Stop,
            ],
            // start stack: [arg = destination index]
            ContractTemplate::Wallet => &[
                CallValue, // [dest, value]
                Transfer,  // relay
                Push(0),
                Log,
                Stop,
            ],
            // start stack: [arg] (ignored)
            ContractTemplate::Factory => &[
                Pop,
                Push(0),
                SLoad,   // [child template]
                Push(0), // [template, endow = 0]
                Create,  // [child addr]
                Pop,
                Push(1),
                SLoad, // [count]
                Push(1),
                Add,     // [count+1]
                Push(1), // [count+1, 1]
                Swap(1), // [1, count+1]
                SStore,  // storage[1] = count + 1
                Stop,
            ],
            // start stack: [arg] (ignored)
            ContractTemplate::Game => &[
                Pop,
                Push(1),
                SLoad,     // [pot]
                CallValue, // [pot, value]
                Add,       // [pot+value]
                Push(1),
                Swap(1),
                SStore, // storage[1] = pot + value
                Rand,
                Push(4),
                Mod,       // [r % 4]
                JumpI(20), // skip payout unless the roll is 0
                // payout path (indices 12..20)
                Push(0),
                SLoad, // [winner]
                Push(1),
                SLoad,    // [winner, pot]
                Transfer, // pay the pot
                Push(1),
                Push(0),
                SStore, // pot = 0
                // index 20: record the caller as last winner
                Push(0),
                Caller,
                SStore, // storage[0] = caller
                Stop,
            ],
            // start stack: [arg = name hash]
            ContractTemplate::Registry => &[
                Caller, // [name, caller]
                SStore, // storage[name] = caller
                Push(0),
                Log,
                Stop,
            ],
        }
    }

    /// The storage a fresh instance starts with, given the constructor
    /// argument (an address index or child-template id, depending on the
    /// template).
    pub fn initial_storage(self, arg: u64) -> Vec<(u64, u64)> {
        match self {
            ContractTemplate::Token => vec![(0, arg)], // owner
            ContractTemplate::Crowdsale => vec![(0, arg), (1, arg.wrapping_add(1))],
            ContractTemplate::Wallet => vec![(0, arg)], // owner
            ContractTemplate::Factory => vec![(0, arg % 6), (1, 0)],
            ContractTemplate::Game => vec![(0, arg), (1, 0)],
            ContractTemplate::Registry => Vec::new(),
        }
    }
}

impl fmt::Display for ContractTemplate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ContractTemplate::Token => "token",
            ContractTemplate::Crowdsale => "crowdsale",
            ContractTemplate::Wallet => "wallet",
            ContractTemplate::Factory => "factory",
            ContractTemplate::Game => "game",
            ContractTemplate::Registry => "registry",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip() {
        for t in ContractTemplate::ALL {
            assert_eq!(ContractTemplate::from_id(t.id()), Some(t));
        }
        assert!(ContractTemplate::from_id(6).is_none());
    }

    #[test]
    fn all_programs_terminate_with_stop() {
        for t in ContractTemplate::ALL {
            assert_eq!(t.program().last(), Some(&Op::Stop), "{t}");
        }
    }

    #[test]
    fn game_jump_target_is_in_bounds_and_correct() {
        let p = ContractTemplate::Game.program();
        for op in p {
            if let Op::JumpI(target) | Op::Jump(target) = op {
                assert!((*target as usize) < p.len());
                // the skip target must be the "record winner" sequence
                assert_eq!(p[*target as usize], Op::Push(0));
            }
        }
    }

    #[test]
    fn factory_initial_storage_holds_valid_template() {
        for arg in [0u64, 5, 6, 1000] {
            let storage = ContractTemplate::Factory.initial_storage(arg);
            let child = storage.iter().find(|&&(k, _)| k == 0).unwrap().1;
            assert!(ContractTemplate::from_id(child).is_some());
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(ContractTemplate::Token.to_string(), "token");
        assert_eq!(ContractTemplate::Registry.to_string(), "registry");
    }
}
