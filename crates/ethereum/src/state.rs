//! The world state: accounts, contracts, balances and storage.

use std::collections::HashMap;

use blockpart_types::{AccountKind, Address, Wei};
use serde::{Deserialize, Serialize};

use crate::program::{ContractTemplate, Program};

/// The mutable state of one externally-owned account.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccountState {
    /// Current balance.
    pub balance: Wei,
    /// Number of transactions sent.
    pub nonce: u64,
}

/// The mutable state of one contract.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContractState {
    /// The archetype this contract was instantiated from.
    pub template: ContractTemplate,
    /// The contract's code.
    pub program: Program,
    /// Key/value storage (the paper's point: moving a contract between
    /// shards relocates all of this).
    pub storage: HashMap<u64, u64>,
    /// Current ether balance.
    pub balance: Wei,
    /// Who created the contract.
    pub creator: Address,
}

impl ContractState {
    /// The number of occupied storage slots — the relocation cost model's
    /// measure of contract state size.
    pub fn storage_size(&self) -> usize {
        self.storage.len()
    }
}

/// A portable snapshot of one address's state — what two-phase commit
/// ships between shards.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AddressState {
    /// An externally-owned account.
    Account(AccountState),
    /// A contract (code, storage, balance).
    Contract(ContractState),
}

impl AddressState {
    /// Approximate serialized size of the snapshot in bytes — the state
    /// migration cost model's measure of what a shard-to-shard move
    /// ships. An account is its balance and nonce; a contract adds its
    /// code and every occupied storage slot (the paper's point: moving a
    /// contract relocates all of this).
    pub fn approx_bytes(&self) -> u64 {
        match self {
            AddressState::Account(_) => 16,
            AddressState::Contract(c) => {
                16 + c.program.len() as u64 * 8 + c.storage.len() as u64 * 16
            }
        }
    }
}

/// The complete chain state: every account, every contract, plus the
/// address allocator for contract creation.
///
/// # Examples
///
/// ```
/// use blockpart_ethereum::{ContractTemplate, World};
/// use blockpart_types::Wei;
///
/// let mut world = World::new();
/// let alice = world.new_user(Wei::new(1_000));
/// let token = world.create_contract(ContractTemplate::Token, alice, 7);
/// assert!(world.is_contract(token));
/// assert_eq!(world.balance(alice), Wei::new(1_000));
/// ```
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct World {
    accounts: HashMap<Address, AccountState>,
    contracts: HashMap<Address, ContractState>,
    next_index: u64,
}

impl World {
    /// Creates an empty world. Address index 0 is reserved for
    /// [`Address::ZERO`].
    pub fn new() -> Self {
        World {
            accounts: HashMap::new(),
            contracts: HashMap::new(),
            next_index: 1,
        }
    }

    /// Allocates a fresh externally-owned account with an initial balance.
    pub fn new_user(&mut self, endowment: Wei) -> Address {
        let address = self.allocate_address();
        self.accounts.insert(
            address,
            AccountState {
                balance: endowment,
                nonce: 0,
            },
        );
        address
    }

    /// Creates a contract of `template` with constructor argument `arg`,
    /// returning its fresh address. The creator is recorded but no edge is
    /// emitted here — that is the VM's job.
    pub fn create_contract(
        &mut self,
        template: ContractTemplate,
        creator: Address,
        arg: u64,
    ) -> Address {
        let address = self.allocate_address();
        let storage = template.initial_storage(arg).into_iter().collect();
        self.contracts.insert(
            address,
            ContractState {
                template,
                program: template.program(),
                storage,
                balance: Wei::ZERO,
                creator,
            },
        );
        address
    }

    /// The kind of `address` (unknown addresses are accounts: Ethereum
    /// lets you transfer to any address).
    pub fn kind(&self, address: Address) -> AccountKind {
        if self.contracts.contains_key(&address) {
            AccountKind::Contract
        } else {
            AccountKind::ExternallyOwned
        }
    }

    /// Returns `true` if `address` holds a contract.
    pub fn is_contract(&self, address: Address) -> bool {
        self.contracts.contains_key(&address)
    }

    /// The balance of any address (zero if never seen).
    pub fn balance(&self, address: Address) -> Wei {
        if let Some(c) = self.contracts.get(&address) {
            c.balance
        } else {
            self.accounts.get(&address).map_or(Wei::ZERO, |a| a.balance)
        }
    }

    /// Moves up to `value` from `from` to `to`, clamped at the sender's
    /// balance (the graph edge exists regardless of how much actually
    /// moved). Returns the amount transferred.
    pub fn transfer(&mut self, from: Address, to: Address, value: Wei) -> Wei {
        let available = self.balance(from);
        let moved = if value > available { available } else { value };
        self.debit(from, moved);
        self.credit(to, moved);
        moved
    }

    /// Adds `value` to an address, creating an account entry if needed.
    pub fn credit(&mut self, address: Address, value: Wei) {
        if let Some(c) = self.contracts.get_mut(&address) {
            c.balance += value;
        } else {
            self.accounts.entry(address).or_default().balance += value;
        }
    }

    fn debit(&mut self, address: Address, value: Wei) {
        if let Some(c) = self.contracts.get_mut(&address) {
            c.balance = c.balance.saturating_sub(value);
        } else if let Some(a) = self.accounts.get_mut(&address) {
            a.balance = a.balance.saturating_sub(value);
        }
    }

    /// Bumps the sender nonce.
    pub fn bump_nonce(&mut self, address: Address) {
        self.accounts.entry(address).or_default().nonce += 1;
    }

    /// Shared view of a contract's state.
    pub fn contract(&self, address: Address) -> Option<&ContractState> {
        self.contracts.get(&address)
    }

    /// Shared view of an externally-owned account's state.
    pub fn account(&self, address: Address) -> Option<&AccountState> {
        self.accounts.get(&address)
    }

    /// Extracts a portable snapshot of one address's state, if the world
    /// knows the address. Used by the sharded runtime to ship state
    /// between shards during two-phase commit.
    pub fn export_state(&self, address: Address) -> Option<AddressState> {
        if let Some(c) = self.contracts.get(&address) {
            Some(AddressState::Contract(c.clone()))
        } else {
            self.accounts
                .get(&address)
                .map(|a| AddressState::Account(*a))
        }
    }

    /// Removes one address's state and returns its snapshot, if the
    /// world held it. The destructive counterpart of
    /// [`export_state`](Self::export_state): a live state migration
    /// exports on the source shard, installs on the destination, and
    /// finally takes the source copy so exactly one shard owns the
    /// address.
    pub fn take_state(&mut self, address: Address) -> Option<AddressState> {
        if let Some(c) = self.contracts.remove(&address) {
            Some(AddressState::Contract(c))
        } else {
            self.accounts.remove(&address).map(AddressState::Account)
        }
    }

    /// Installs (or overwrites) one address's state from a snapshot.
    pub fn install_state(&mut self, address: Address, state: AddressState) {
        match state {
            AddressState::Account(a) => {
                self.contracts.remove(&address);
                self.accounts.insert(address, a);
            }
            AddressState::Contract(c) => {
                self.accounts.remove(&address);
                self.contracts.insert(address, c);
            }
        }
    }

    /// Every address this world holds state for (accounts then
    /// contracts, in no particular order).
    pub fn addresses(&self) -> impl Iterator<Item = Address> + '_ {
        self.accounts.keys().chain(self.contracts.keys()).copied()
    }

    /// The next index the address allocator will hand out.
    pub fn address_floor(&self) -> u64 {
        self.next_index
    }

    /// Raises the allocator floor so future allocations start at `floor`.
    /// The sharded runtime uses this to keep per-shard address lanes
    /// disjoint; lowering the floor is a no-op.
    pub fn raise_address_floor(&mut self, floor: u64) {
        self.next_index = self.next_index.max(floor);
    }

    /// Reads a contract storage slot (0 when absent).
    pub fn storage_load(&self, contract: Address, key: u64) -> u64 {
        self.contracts
            .get(&contract)
            .and_then(|c| c.storage.get(&key))
            .copied()
            .unwrap_or(0)
    }

    /// Writes a contract storage slot.
    ///
    /// # Panics
    ///
    /// Panics if `contract` is not a contract — only the VM writes
    /// storage, and it only runs inside contracts.
    pub fn storage_store(&mut self, contract: Address, key: u64, value: u64) {
        self.contracts
            .get_mut(&contract)
            .expect("storage write outside a contract")
            .storage
            .insert(key, value);
    }

    /// Number of accounts ever touched.
    pub fn account_count(&self) -> usize {
        self.accounts.len()
    }

    /// Number of contracts created.
    pub fn contract_count(&self) -> usize {
        self.contracts.len()
    }

    /// Iterates over all contract addresses with their storage sizes —
    /// the relocation cost model's input.
    pub fn contract_storage_sizes(&self) -> impl Iterator<Item = (Address, usize)> + '_ {
        self.contracts.iter().map(|(&a, c)| (a, c.storage_size()))
    }

    fn allocate_address(&mut self) -> Address {
        let address = Address::from_index(self.next_index);
        self.next_index += 1;
        address
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn users_get_distinct_addresses() {
        let mut w = World::new();
        let a = w.new_user(Wei::new(10));
        let b = w.new_user(Wei::new(10));
        assert_ne!(a, b);
        assert_eq!(w.account_count(), 2);
    }

    #[test]
    fn transfer_clamps_at_balance() {
        let mut w = World::new();
        let a = w.new_user(Wei::new(5));
        let b = w.new_user(Wei::ZERO);
        let moved = w.transfer(a, b, Wei::new(100));
        assert_eq!(moved, Wei::new(5));
        assert_eq!(w.balance(a), Wei::ZERO);
        assert_eq!(w.balance(b), Wei::new(5));
    }

    #[test]
    fn transfer_to_unknown_address_creates_account() {
        let mut w = World::new();
        let a = w.new_user(Wei::new(5));
        let ghost = Address::from_index(999_999);
        w.transfer(a, ghost, Wei::new(3));
        assert_eq!(w.balance(ghost), Wei::new(3));
    }

    #[test]
    fn contract_creation_sets_template_state() {
        let mut w = World::new();
        let creator = w.new_user(Wei::new(1));
        let c = w.create_contract(ContractTemplate::Crowdsale, creator, 42);
        assert!(w.is_contract(c));
        assert_eq!(w.kind(c), AccountKind::Contract);
        let state = w.contract(c).unwrap();
        assert_eq!(state.template, ContractTemplate::Crowdsale);
        assert_eq!(state.creator, creator);
        assert_eq!(w.storage_load(c, 0), 42);
    }

    #[test]
    fn storage_roundtrip() {
        let mut w = World::new();
        let u = w.new_user(Wei::ZERO);
        let c = w.create_contract(ContractTemplate::Registry, u, 0);
        assert_eq!(w.storage_load(c, 7), 0);
        w.storage_store(c, 7, 99);
        assert_eq!(w.storage_load(c, 7), 99);
        assert_eq!(w.contract(c).unwrap().storage_size(), 1);
    }

    #[test]
    #[should_panic(expected = "storage write outside a contract")]
    fn storage_write_to_account_panics() {
        let mut w = World::new();
        let u = w.new_user(Wei::ZERO);
        w.storage_store(u, 0, 1);
    }

    #[test]
    fn contract_balances_tracked_separately() {
        let mut w = World::new();
        let u = w.new_user(Wei::new(10));
        let c = w.create_contract(ContractTemplate::Game, u, 0);
        w.transfer(u, c, Wei::new(4));
        assert_eq!(w.balance(c), Wei::new(4));
        assert_eq!(w.balance(u), Wei::new(6));
    }

    #[test]
    fn storage_sizes_iterator() {
        let mut w = World::new();
        let u = w.new_user(Wei::ZERO);
        let c = w.create_contract(ContractTemplate::Token, u, 1);
        let sizes: Vec<_> = w.contract_storage_sizes().collect();
        assert_eq!(sizes, vec![(c, 1)]);
    }

    #[test]
    fn take_state_removes_and_roundtrips() {
        let mut w = World::new();
        let u = w.new_user(Wei::new(5));
        let c = w.create_contract(ContractTemplate::Token, u, 1);
        let ua = w.take_state(u).expect("account state");
        assert!(w.account(u).is_none());
        assert!(w.take_state(u).is_none());
        w.install_state(u, ua);
        assert_eq!(w.balance(u), Wei::new(5));
        let cs = w.take_state(c).expect("contract state");
        assert!(!w.is_contract(c));
        w.install_state(c, cs);
        assert!(w.is_contract(c));
    }

    #[test]
    fn approx_bytes_grows_with_contract_state() {
        let mut w = World::new();
        let u = w.new_user(Wei::new(5));
        let c = w.create_contract(ContractTemplate::Token, u, 1);
        let account = w.export_state(u).unwrap();
        let contract = w.export_state(c).unwrap();
        assert_eq!(account.approx_bytes(), 16);
        assert!(contract.approx_bytes() > account.approx_bytes());
        w.storage_store(c, 1234, 1);
        let bigger = w.export_state(c).unwrap();
        assert_eq!(bigger.approx_bytes(), contract.approx_bytes() + 16);
    }
}
