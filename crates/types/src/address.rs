//! Account and contract addresses.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A 20-byte Ethereum-style address identifying an account or a contract.
///
/// Addresses are opaque identifiers: the graph layer maps them to dense
/// vertex indices, and the partitioners only ever hash or compare them.
///
/// # Examples
///
/// ```
/// use blockpart_types::Address;
///
/// let a = Address::from_index(7);
/// let b = Address::from_bytes([0u8; 20]);
/// assert_ne!(a, b);
/// assert_eq!(a.to_string().len(), 2 + 40); // "0x" + 40 hex digits
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Address([u8; 20]);

impl Address {
    /// The all-zero address, used as the "creation" pseudo-target in traces.
    pub const ZERO: Address = Address([0u8; 20]);

    /// Creates an address from raw bytes.
    pub const fn from_bytes(bytes: [u8; 20]) -> Self {
        Address(bytes)
    }

    /// Creates a deterministic address from a dense index.
    ///
    /// The index is mixed through a 64-bit finalizer so that consecutive
    /// indices do not produce addresses that are trivially close in hash
    /// space, then stored (together with the raw index) in the byte array.
    /// [`Address::index`] recovers the raw index.
    pub fn from_index(index: u64) -> Self {
        let mut bytes = [0u8; 20];
        bytes[..8].copy_from_slice(&mix64(index).to_be_bytes());
        bytes[12..20].copy_from_slice(&index.to_be_bytes());
        Address(bytes)
    }

    /// Returns the dense index this address was created from, if it was
    /// created by [`Address::from_index`].
    ///
    /// For addresses created from arbitrary bytes the value is whatever the
    /// last eight bytes decode to.
    pub fn index(&self) -> u64 {
        let mut idx = [0u8; 8];
        idx.copy_from_slice(&self.0[12..20]);
        u64::from_be_bytes(idx)
    }

    /// Returns the raw bytes of the address.
    pub const fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }

    /// A stable 64-bit hash of the address, independent of the process.
    ///
    /// Used by hash partitioning so that shard placement is reproducible
    /// across runs and platforms.
    pub fn stable_hash(&self) -> u64 {
        // FNV-1a over the 20 bytes, then a 64-bit avalanche.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in &self.0 {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        mix64(h)
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Address({self})")
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x")?;
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl From<[u8; 20]> for Address {
    fn from(bytes: [u8; 20]) -> Self {
        Address(bytes)
    }
}

/// Whether a vertex of the blockchain graph is an externally-owned account
/// or a smart contract.
///
/// The distinction matters for the simulator: moving a contract between
/// shards relocates its whole storage, while moving an account relocates a
/// fixed-size balance record.
///
/// # Examples
///
/// ```
/// use blockpart_types::AccountKind;
///
/// assert!(AccountKind::Contract.is_contract());
/// assert!(!AccountKind::ExternallyOwned.is_contract());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccountKind {
    /// A user-controlled account (EOA): it only holds a balance and a nonce.
    #[default]
    ExternallyOwned,
    /// A smart contract with code and key-value storage.
    Contract,
}

impl AccountKind {
    /// Returns `true` for [`AccountKind::Contract`].
    pub const fn is_contract(self) -> bool {
        matches!(self, AccountKind::Contract)
    }
}

impl fmt::Display for AccountKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccountKind::ExternallyOwned => f.write_str("eoa"),
            AccountKind::Contract => f.write_str("contract"),
        }
    }
}

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixer, shared by
/// address derivation, hash partitioning and the runtime's jitter and
/// entropy so ids that are already hashes and raw dense indices both
/// spread well.
///
/// # Examples
///
/// ```
/// use blockpart_types::mix64;
///
/// assert_ne!(mix64(0), mix64(1));
/// assert_eq!(mix64(7), mix64(7));
/// ```
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn from_index_roundtrip() {
        for i in [0u64, 1, 42, u32::MAX as u64, u64::MAX] {
            assert_eq!(Address::from_index(i).index(), i);
        }
    }

    #[test]
    fn from_index_distinct() {
        let set: HashSet<_> = (0..10_000).map(Address::from_index).collect();
        assert_eq!(set.len(), 10_000);
    }

    #[test]
    fn display_format() {
        let a = Address::from_bytes([0xab; 20]);
        let s = a.to_string();
        assert!(s.starts_with("0x"));
        assert_eq!(s.len(), 42);
        assert!(s[2..].chars().all(|c| c == 'a' || c == 'b'));
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Address::ZERO).is_empty());
    }

    #[test]
    fn stable_hash_is_deterministic_and_spread() {
        let h1 = Address::from_index(1).stable_hash();
        let h2 = Address::from_index(1).stable_hash();
        assert_eq!(h1, h2);

        // Hashes of consecutive indices should differ in low bits (the
        // property hash partitioning relies on for modulo-k spread).
        let mut counts = [0usize; 8];
        for i in 0..8_000 {
            counts[(Address::from_index(i).stable_hash() % 8) as usize] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "unbalanced bucket: {counts:?}");
        }
    }

    #[test]
    fn zero_address() {
        assert_eq!(Address::ZERO.as_bytes(), &[0u8; 20]);
        assert_eq!(Address::ZERO.index(), 0);
    }

    #[test]
    fn kind_display() {
        assert_eq!(AccountKind::ExternallyOwned.to_string(), "eoa");
        assert_eq!(AccountKind::Contract.to_string(), "contract");
    }

    #[test]
    fn ordering_is_bytewise() {
        let a = Address::from_bytes([1; 20]);
        let b = Address::from_bytes([2; 20]);
        assert!(a < b);
    }
}
