//! Compact disk-resident account/contract state for 2PC state shipping.
//!
//! Migration batches in the sharded runtime ship [`AddressState`]
//! snapshots between shards. At paper scale the source `World` does not
//! fit in RAM, so the runtime spools snapshots through this store: an
//! append-only record file plus an `O(V)` in-memory offset index (latest
//! record wins). Contract programs are **not** stored — every contract in
//! the workload runs its [`ContractTemplate`]'s static program, so a
//! record holds the template id and nothing is compiled on read; a token
//! contract with a thousand storage slots costs ~16 KiB on disk instead
//! of its code plus slots resident.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use blockpart_ethereum::{AccountState, AddressState, ContractState, ContractTemplate, Storage};
use blockpart_types::{Address, Wei};

const TAG_ACCOUNT: u8 = 0;
const TAG_CONTRACT: u8 = 1;

/// An append-only, disk-resident map from [`Address`] to the latest
/// [`AddressState`] snapshot written for it.
///
/// # Examples
///
/// ```
/// use blockpart_storage::AccountStateStore;
/// use blockpart_ethereum::{AccountState, AddressState};
/// use blockpart_types::{Address, Wei};
///
/// let path = std::env::temp_dir().join("bpst-doc.bpst");
/// let mut store = AccountStateStore::create(&path).unwrap();
/// let a = Address::from_index(7);
/// let state = AddressState::Account(AccountState { balance: Wei::new(42), nonce: 3 });
/// store.put(a, &state).unwrap();
/// assert_eq!(store.get(a).unwrap(), Some(state));
/// assert_eq!(store.get(Address::from_index(8)).unwrap(), None);
/// # drop(store);
/// # std::fs::remove_file(&path).unwrap();
/// ```
#[derive(Debug)]
pub struct AccountStateStore {
    file: File,
    path: PathBuf,
    index: HashMap<Address, u64>,
    end: u64,
}

impl AccountStateStore {
    /// Creates (truncating) a fresh store at `path`.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<AccountStateStore> {
        let path = path.into();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(AccountStateStore {
            file,
            path,
            index: HashMap::new(),
            end: 0,
        })
    }

    /// The backing file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of distinct addresses with a stored snapshot.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when no snapshot has been stored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Bytes appended so far.
    pub fn bytes_written(&self) -> u64 {
        self.end
    }

    /// Appends a snapshot for `address`; later reads return this record.
    pub fn put(&mut self, address: Address, state: &AddressState) -> io::Result<()> {
        let mut record = Vec::with_capacity(64);
        record.extend_from_slice(address.as_bytes());
        match state {
            AddressState::Account(a) => {
                record.push(TAG_ACCOUNT);
                record.extend_from_slice(&a.balance.get().to_le_bytes());
                record.extend_from_slice(&a.nonce.to_le_bytes());
            }
            AddressState::Contract(c) => {
                record.push(TAG_CONTRACT);
                record.extend_from_slice(&c.template.id().to_le_bytes());
                record.extend_from_slice(c.creator.as_bytes());
                record.extend_from_slice(&c.balance.get().to_le_bytes());
                record.extend_from_slice(&(c.storage.len() as u64).to_le_bytes());
                // Slot order is irrelevant to the map but fixed here so
                // identical states encode to identical bytes.
                let mut slots: Vec<(u64, u64)> = c.storage.iter().collect();
                slots.sort_unstable_by_key(|&(k, _)| k);
                for (k, v) in slots {
                    record.extend_from_slice(&k.to_le_bytes());
                    record.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        self.file.seek(SeekFrom::Start(self.end))?;
        self.file.write_all(&record)?;
        self.index.insert(address, self.end);
        self.end += record.len() as u64;
        Ok(())
    }

    /// Reads the latest snapshot for `address`, decoding the record. A
    /// contract's code is its template's static program, so only the
    /// template id is read for it.
    pub fn get(&mut self, address: Address) -> io::Result<Option<AddressState>> {
        let Some(&offset) = self.index.get(&address) else {
            return Ok(None);
        };
        self.file.seek(SeekFrom::Start(offset))?;
        let mut head = [0u8; 21];
        self.file.read_exact(&mut head)?;
        let stored = Address::from_bytes(head[..20].try_into().expect("20 bytes"));
        if stored != address {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "state store index points at a record for a different address",
            ));
        }
        let mut word = || -> io::Result<u64> {
            let mut b = [0u8; 8];
            self.file.read_exact(&mut b)?;
            Ok(u64::from_le_bytes(b))
        };
        match head[20] {
            TAG_ACCOUNT => {
                let balance = Wei::new(word()?);
                let nonce = word()?;
                Ok(Some(AddressState::Account(AccountState { balance, nonce })))
            }
            TAG_CONTRACT => {
                let template_id = word()?;
                let template = ContractTemplate::from_id(template_id).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unknown contract template id {template_id}"),
                    )
                })?;
                let mut creator_bytes = [0u8; 20];
                self.file.read_exact(&mut creator_bytes)?;
                let mut word = || -> io::Result<u64> {
                    let mut b = [0u8; 8];
                    self.file.read_exact(&mut b)?;
                    Ok(u64::from_le_bytes(b))
                };
                let balance = Wei::new(word()?);
                let slots = word()?;
                let storage = (0..slots)
                    .map(|_| Ok((word()?, word()?)))
                    .collect::<io::Result<Storage>>()?;
                Ok(Some(AddressState::Contract(ContractState {
                    template,
                    storage,
                    balance,
                    creator: Address::from_bytes(creator_bytes),
                })))
            }
            tag => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown state record tag {tag}"),
            )),
        }
    }

    /// Writes `state` and immediately reads it back — the runtime's
    /// "serialize migration batches from disk" round-trip. Returns the
    /// decoded snapshot, which is guaranteed equal to `state` for any
    /// template-instantiated contract.
    pub fn roundtrip(
        &mut self,
        address: Address,
        state: &AddressState,
    ) -> io::Result<AddressState> {
        self.put(address, state)?;
        self.get(address)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "state store lost a record it just wrote",
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockpart_ethereum::World;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("bpst-test-{name}.bpst"))
    }

    #[test]
    fn account_and_contract_roundtrip() {
        let path = temp_path("roundtrip");
        let mut store = AccountStateStore::create(&path).unwrap();
        let mut world = World::new();
        let user = world.new_user(Wei::new(500));
        let token = world.create_contract(ContractTemplate::Token, user, 9);
        world.storage_store(token, 77, 123);
        for addr in [user, token] {
            let state = world.export_state(addr).unwrap();
            let back = store.roundtrip(addr, &state).unwrap();
            assert_eq!(back, state, "round-trip must be lossless for {addr:?}");
        }
        assert_eq!(store.len(), 2);
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn latest_record_wins() {
        let path = temp_path("latest");
        let mut store = AccountStateStore::create(&path).unwrap();
        let a = Address::from_index(1);
        let first = AddressState::Account(AccountState {
            balance: Wei::new(1),
            nonce: 0,
        });
        let second = AddressState::Account(AccountState {
            balance: Wei::new(2),
            nonce: 5,
        });
        store.put(a, &first).unwrap();
        store.put(a, &second).unwrap();
        assert_eq!(store.get(a).unwrap(), Some(second));
        assert_eq!(store.len(), 1);
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_template_roundtrips() {
        let path = temp_path("templates");
        let mut store = AccountStateStore::create(&path).unwrap();
        let mut world = World::new();
        let creator = world.new_user(Wei::new(1));
        for (i, template) in ContractTemplate::ALL.iter().enumerate() {
            let c = world.create_contract(*template, creator, i as u64);
            let state = world.export_state(c).unwrap();
            assert_eq!(store.roundtrip(c, &state).unwrap(), state);
        }
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn contract_records_are_compact() {
        let path = temp_path("compact");
        let mut store = AccountStateStore::create(&path).unwrap();
        let mut world = World::new();
        let user = world.new_user(Wei::ZERO);
        let c = world.create_contract(ContractTemplate::Token, user, 1);
        let state = world.export_state(c).unwrap();
        store.put(c, &state).unwrap();
        // On-disk record: no program bytes, just header + sorted slots.
        assert!(store.bytes_written() < state.approx_bytes() + 64);
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }
}
