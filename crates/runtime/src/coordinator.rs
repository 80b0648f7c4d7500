//! Per-transaction two-phase-commit coordinator state.
//!
//! Every cross-shard transaction is coordinated by its home shard. The
//! state machine is: `Prepare` broadcast → collect votes → on unanimous
//! yes, execute on a scratch world assembled from the shipped snapshots →
//! `Commit` broadcast with write-sets → collect acks → committed. Any
//! `no` vote aborts the round; the coordinator backs off and retries up
//! to a configured attempt cap.
//!
//! A state is reset in place between rounds, and a worker reuses the
//! states of finished transactions, so its lists keep their capacity.

use blockpart_ethereum::AddressState;
use blockpart_types::{Address, ShardId};

/// Coordinator-side state of one in-flight cross-shard transaction.
#[derive(Debug, Default)]
pub struct CoordState {
    /// 1-based prepare-round counter.
    pub attempt: u32,
    /// Votes still outstanding in this round.
    pub votes_pending: usize,
    /// Whether any participant voted `no` this round.
    pub any_no: bool,
    /// Participants that voted `yes` and therefore hold locks.
    pub locked: Vec<ShardId>,
    /// State snapshots shipped with the `yes` votes.
    pub shipped: Vec<(Address, AddressState)>,
    /// Contracts the execution created (installed on the home shard at
    /// commit).
    pub created: Vec<Address>,
    /// Acks still outstanding after the `Commit` broadcast.
    pub acks_pending: usize,
}

impl CoordState {
    /// Opens prepare round `attempt` awaiting `participants` votes,
    /// clearing the previous round but keeping the lists' capacity.
    pub fn reset_round(&mut self, attempt: u32, participants: usize) {
        self.attempt = attempt;
        self.votes_pending = participants;
        self.any_no = false;
        self.locked.clear();
        self.shipped.clear();
        self.created.clear();
        self.acks_pending = 0;
    }

    /// Records one vote; returns `true` when the round is complete. A
    /// `yes` vote's snapshots move out of `shipped`, which is left empty
    /// for the caller to reuse: the first yes-vote's vector is swapped in
    /// whole, later ones are appended.
    pub fn record_vote(
        &mut self,
        from: ShardId,
        ok: bool,
        shipped: &mut Vec<(Address, AddressState)>,
    ) -> bool {
        debug_assert!(self.votes_pending > 0, "vote after round completion");
        self.votes_pending -= 1;
        if ok {
            self.locked.push(from);
            if self.shipped.is_empty() {
                std::mem::swap(&mut self.shipped, shipped);
            } else {
                self.shipped.append(shipped);
            }
        } else {
            self.any_no = true;
        }
        self.votes_pending == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_completes_after_all_votes() {
        let mut c = CoordState::default();
        c.reset_round(1, 2);
        assert!(!c.record_vote(ShardId::new(0), true, &mut Vec::new()));
        assert!(c.record_vote(ShardId::new(1), false, &mut Vec::new()));
        assert!(c.any_no);
        assert_eq!(c.locked, vec![ShardId::new(0)]);
    }

    #[test]
    fn yes_votes_ship_in_vote_order_and_leave_their_vectors_empty() {
        let state = |i: u64| {
            (
                Address::from_index(i),
                AddressState::Account(blockpart_ethereum::AccountState::default()),
            )
        };
        let mut c = CoordState::default();
        c.reset_round(1, 3);
        let mut first = vec![state(1), state(2)];
        let mut second = vec![state(3)];
        assert!(!c.record_vote(ShardId::new(0), true, &mut first));
        assert!(!c.record_vote(ShardId::new(1), true, &mut second));
        assert!(first.is_empty() && second.is_empty());
        assert!(c.record_vote(ShardId::new(2), true, &mut Vec::new()));
        let order: Vec<Address> = c.shipped.iter().map(|&(a, _)| a).collect();
        assert_eq!(order, (1..=3).map(Address::from_index).collect::<Vec<_>>());

        c.reset_round(2, 1);
        assert_eq!((c.attempt, c.votes_pending), (2, 1));
        assert!(c.shipped.is_empty() && c.locked.is_empty() && !c.any_no);
    }
}
