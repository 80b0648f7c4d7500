//! Property test: a contract's storage behaves like one private map per
//! snapshot.
//!
//! `Storage` keeps a reference-counted base map plus a private overlay
//! of the slots written while the base was shared. Whatever the order of
//! writes, reads, exports (snapshots), installs into a second world and
//! drops, every world's contract and every live snapshot must read, count,
//! iterate and compare exactly like a plain `HashMap` that was copied at
//! export time. Snapshots are never written, so matching their models
//! after the source's later writes shows they never see those writes; the
//! source's model likewise never sees writes made where a snapshot of it
//! was installed.

use std::collections::HashMap;

use blockpart_ethereum::{AddressState, ContractState, ContractTemplate, World};
use blockpart_types::{Address, Wei};
use proptest::collection::vec;
use proptest::prelude::*;

/// Slot keys are drawn from `0..KEYS`, so writes often hit the same slot.
const KEYS: u64 = 12;

type Model = HashMap<u64, u64>;

fn contract(world: &World, c: Address) -> &ContractState {
    world.contract(c).expect("both worlds hold the contract")
}

fn snapshot(world: &World, c: Address) -> ContractState {
    match world.export_state(c) {
        Some(AddressState::Contract(state)) => state,
        other => panic!("exported a contract, got {other:?}"),
    }
}

/// Checks that `state` reads, counts and iterates exactly like `model`.
fn assert_matches(state: &ContractState, model: &Model, what: &str) {
    for key in 0..KEYS {
        assert_eq!(
            state.storage.get(key),
            model.get(&key).copied(),
            "{what}: slot {key}"
        );
    }
    assert_eq!(state.storage_size(), model.len(), "{what}: size");
    assert_eq!(
        state.storage.is_empty(),
        model.is_empty(),
        "{what}: emptiness"
    );
    let slots: Vec<(u64, u64)> = state.storage.iter().collect();
    assert_eq!(slots.len(), model.len(), "{what}: iteration repeats a slot");
    let iterated: Model = slots.into_iter().collect();
    assert_eq!(&iterated, model, "{what}: iteration");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn overlays_behave_like_private_maps(
        ops in vec((0u32..7, 0usize..2, 0u64..KEYS, 0u64..4, 0usize..8), 1..90),
    ) {
        let mut source = World::new();
        let owner = source.new_user(Wei::ZERO);
        // a token starts with one slot (its owner), so the base is never empty
        let c = source.create_contract(ContractTemplate::Token, owner, 5);
        let mut second = World::new();
        second.install_state(c, source.export_state(c).expect("contract state"));
        let mut worlds = [source, second];
        let initial: Model = [(0, 5)].into_iter().collect();
        let mut models = [initial.clone(), initial];
        let mut snapshots: Vec<(ContractState, Model)> = Vec::new();

        for (op, w, key, value, pick) in ops {
            match op {
                // writes are the most common step
                0..=2 => {
                    worlds[w].storage_store(c, key, value);
                    models[w].insert(key, value);
                }
                3 => {
                    let read = worlds[w].storage_load(c, key);
                    prop_assert_eq!(read, models[w].get(&key).copied().unwrap_or(0));
                }
                4 => snapshots.push((snapshot(&worlds[w], c), models[w].clone())),
                5 if !snapshots.is_empty() => {
                    let (state, model) = &snapshots[pick % snapshots.len()];
                    worlds[w].install_state(c, AddressState::Contract(state.clone()));
                    models[w] = model.clone();
                }
                6 if !snapshots.is_empty() => {
                    snapshots.swap_remove(pick % snapshots.len());
                }
                _ => {}
            }

            let mut states: Vec<(&ContractState, &Model)> = Vec::new();
            for (world, model) in worlds.iter().zip(&models) {
                states.push((contract(world, c), model));
            }
            for (state, model) in &snapshots {
                states.push((state, model));
            }
            for (i, &(state, model)) in states.iter().enumerate() {
                assert_matches(state, model, &format!("state {i}"));
            }
            for &(a, model_a) in &states {
                for &(b, model_b) in &states {
                    prop_assert_eq!(a.storage == b.storage, model_a == model_b);
                    prop_assert_eq!(a == b, model_a == model_b);
                }
            }
        }
    }
}
