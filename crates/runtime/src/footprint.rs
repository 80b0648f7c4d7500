//! Transaction footprints split by owning shard, stored flat.
//!
//! A replay touches every record's footprint on every prepare, vote,
//! commit and release, so the footprints of one run (or one live
//! segment) live in one arena instead of a vector per record and per
//! shard: each record owns a range of [`Part`]s, and each part a range
//! of one address array. The arena is reserved up front from the
//! `touched` lengths, so building it allocates a handful of times per
//! run, not once or more per transaction.

use std::ops::Range;

use blockpart_types::{Address, ShardId};

/// One shard's share of a record's footprint: the addresses it owns,
/// as a range of the arena's address array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Part {
    /// The owning shard.
    pub shard: ShardId,
    start: u32,
    end: u32,
}

/// The footprint arena of one run or one live segment.
///
/// A record's parts come in ascending shard order, and each part keeps
/// its addresses in `touched` order. Prepares, votes, commits and trace
/// records follow that order, so it is part of the replay's output.
#[derive(Debug, Default)]
pub(crate) struct Footprints {
    parts: Vec<Part>,
    addrs: Vec<Address>,
    /// Scratch of [`push_grouped`](Self::push_grouped): each address's
    /// `(shard, position in touched)`.
    order: Vec<(ShardId, u32)>,
}

impl Footprints {
    /// An arena with room for `parts` parts and `addrs` addresses.
    pub fn with_capacity(parts: usize, addrs: usize) -> Self {
        Footprints {
            parts: Vec::with_capacity(parts),
            addrs: Vec::with_capacity(addrs),
            order: Vec::new(),
        }
    }

    /// Appends the footprint `touched` grouped by `shard_of`, and
    /// returns the range of parts it occupies.
    pub fn push_grouped(
        &mut self,
        touched: &[Address],
        shard_of: impl Fn(Address) -> ShardId,
    ) -> Range<u32> {
        let first = index(self.parts.len());
        self.order.clear();
        self.order.extend(
            touched
                .iter()
                .enumerate()
                .map(|(i, &a)| (shard_of(a), index(i))),
        );
        // ascending shard, then touched order; positions are distinct,
        // so the unstable sort has one outcome
        self.order.sort_unstable();
        for group in self.order.chunk_by(|x, y| x.0 == y.0) {
            let start = index(self.addrs.len());
            self.addrs
                .extend(group.iter().map(|&(_, i)| touched[i as usize]));
            self.parts.push(Part {
                shard: group[0].0,
                start,
                end: index(self.addrs.len()),
            });
        }
        first..index(self.parts.len())
    }

    /// Appends a footprint of one part, `addrs` on `shard`, and returns
    /// its range of parts.
    pub fn push_part(&mut self, shard: ShardId, addrs: &[Address]) -> Range<u32> {
        let first = index(self.parts.len());
        let start = index(self.addrs.len());
        self.addrs.extend_from_slice(addrs);
        self.parts.push(Part {
            shard,
            start,
            end: index(self.addrs.len()),
        });
        first..first + 1
    }

    /// The parts of the footprint at `range`, ascending shard id.
    pub fn parts(&self, range: &Range<u32>) -> &[Part] {
        &self.parts[range.start as usize..range.end as usize]
    }

    /// The addresses of `part`.
    pub fn addrs(&self, part: &Part) -> &[Address] {
        &self.addrs[part.start as usize..part.end as usize]
    }

    /// Every address of the footprint at `range`, part after part.
    pub fn all_addrs(&self, range: &Range<u32>) -> &[Address] {
        match self.parts(range) {
            [] => &[],
            [first, .., last] => &self.addrs[first.start as usize..last.end as usize],
            [only] => self.addrs(only),
        }
    }

    /// The addresses of the footprint at `range` owned by `shard` (empty
    /// if `shard` is not a participant).
    pub fn addrs_on(&self, range: &Range<u32>, shard: ShardId) -> &[Address] {
        self.parts(range)
            .iter()
            .find(|p| p.shard == shard)
            .map_or(&[], |p| self.addrs(p))
    }
}

fn index(i: usize) -> u32 {
    u32::try_from(i).expect("footprint arena exceeds u32 indices")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The grouping records used before the arena, one vector per part:
    /// parts in first-touch order, then sorted by shard.
    fn reference(
        touched: &[Address],
        shard_of: impl Fn(Address) -> ShardId,
    ) -> Vec<(ShardId, Vec<Address>)> {
        let mut parts: Vec<(ShardId, Vec<Address>)> = Vec::new();
        for &a in touched {
            let shard = shard_of(a);
            match parts.iter_mut().find(|(s, _)| *s == shard) {
                Some((_, addrs)) => addrs.push(a),
                None => parts.push((shard, vec![a])),
            }
        }
        parts.sort_unstable_by_key(|&(s, _)| s);
        parts
    }

    fn shard_of(k: u16, salt: u64) -> impl Fn(Address) -> ShardId {
        move |a| ShardId::new((blockpart_types::mix64(a.index() ^ salt) % u64::from(k)) as u16)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        // several footprints pushed into one arena read back exactly as
        // the per-record grouping, whatever the shard count, and with or
        // without repeated addresses
        #[test]
        fn arena_matches_per_record_grouping(
            footprints in proptest::collection::vec(
                proptest::collection::vec(1u64..24, 0..13),
                1..6,
            ),
            distinct in any::<bool>(),
            k in 1u16..=8,
            salt in any::<u64>(),
        ) {
            let shard_of = shard_of(k, salt);
            let touched: Vec<Vec<Address>> = footprints
                .iter()
                .map(|f| {
                    let mut t: Vec<Address> = Vec::new();
                    for a in f.iter().map(|&i| Address::from_index(i)) {
                        // a canonical footprint lists each address once
                        if !(distinct && t.contains(&a)) {
                            t.push(a);
                        }
                    }
                    t
                })
                .collect();
            let total = touched.iter().map(Vec::len).sum();
            let mut arena = Footprints::with_capacity(0, total);
            let reserved = arena.addrs.capacity();
            let ranges: Vec<Range<u32>> = touched
                .iter()
                .map(|t| arena.push_grouped(t, &shard_of))
                .collect();
            prop_assert_eq!(arena.addrs.len(), total);
            // the exact reservation held: the address array never grew
            prop_assert_eq!(arena.addrs.capacity(), reserved);
            for (t, range) in touched.iter().zip(&ranges) {
                let expect = reference(t, &shard_of);
                let got: Vec<(ShardId, Vec<Address>)> = arena
                    .parts(range)
                    .iter()
                    .map(|p| (p.shard, arena.addrs(p).to_vec()))
                    .collect();
                prop_assert_eq!(&got, &expect);
                let flat: Vec<Address> = expect.iter().flat_map(|(_, a)| a.clone()).collect();
                prop_assert_eq!(arena.all_addrs(range), flat.as_slice());
                for s in 0..k {
                    let s = ShardId::new(s);
                    let on = expect.iter().find(|(p, _)| *p == s).map_or(&[][..], |(_, a)| a);
                    prop_assert_eq!(arena.addrs_on(range, s), on);
                }
            }
        }
    }

    #[test]
    fn a_single_part_reads_back() {
        let addrs = [Address::from_index(3), Address::from_index(1)];
        let mut arena = Footprints::default();
        let empty = arena.push_grouped(&[], |_| ShardId::new(0));
        let range = arena.push_part(ShardId::new(2), &addrs);
        assert!(arena.parts(&empty).is_empty());
        assert!(arena.all_addrs(&empty).is_empty());
        assert_eq!(arena.parts(&range).len(), 1);
        assert_eq!(arena.addrs_on(&range, ShardId::new(2)), &addrs);
        assert_eq!(arena.all_addrs(&range), &addrs);
        assert!(arena.addrs_on(&range, ShardId::new(0)).is_empty());
    }
}
