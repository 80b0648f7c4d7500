//! Time-ordered interaction logs and windowed graph construction.

use blockpart_types::{AccountKind, Address, Timestamp};
use serde::{Deserialize, Serialize};

use crate::builder::GraphBuilder;
use crate::graph::Graph;

/// One timestamped interaction between two addresses.
///
/// An interaction is an edge event in the blockchain graph: a transfer from
/// an account, or a call performed by a contract as part of a transaction.
///
/// # Examples
///
/// ```
/// use blockpart_graph::Interaction;
/// use blockpart_types::{AccountKind, Address, Timestamp};
///
/// let i = Interaction::new(
///     Timestamp::from_secs(60),
///     Address::from_index(1),
///     Address::from_index(2),
/// );
/// assert_eq!(i.weight, 1);
/// assert!(!i.to_kind.is_contract());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Interaction {
    /// When the enclosing transaction executed.
    pub time: Timestamp,
    /// Caller / sender.
    pub from: Address,
    /// Callee / recipient.
    pub to: Address,
    /// How many times the interaction occurred (merged multiplicity).
    pub weight: u64,
    /// Kind of the source vertex.
    pub from_kind: AccountKind,
    /// Kind of the target vertex.
    pub to_kind: AccountKind,
}

impl Interaction {
    /// Creates a unit-weight interaction between two externally-owned
    /// accounts. Use the struct-update syntax to override kinds or weight.
    pub fn new(time: Timestamp, from: Address, to: Address) -> Self {
        Interaction {
            time,
            from,
            to,
            weight: 1,
            from_kind: AccountKind::ExternallyOwned,
            to_kind: AccountKind::ExternallyOwned,
        }
    }
}

/// An append-only, time-ordered log of [`Interaction`]s.
///
/// The log is the bridge between the chain simulator (which emits events)
/// and the graph layer: cumulative graphs (`METIS` input), windowed graphs
/// (`R-METIS`'s *reduced graph*) and per-window metric evaluation all slice
/// this log.
///
/// # Examples
///
/// ```
/// use blockpart_graph::{Interaction, InteractionLog};
/// use blockpart_types::{Address, Timestamp};
///
/// let mut log = InteractionLog::new();
/// for t in 0..10 {
///     log.push(Interaction::new(
///         Timestamp::from_secs(t * 100),
///         Address::from_index(t),
///         Address::from_index(t + 1),
///     ));
/// }
/// let g = log.graph_until(Timestamp::from_secs(500));
/// assert_eq!(g.edge_count(), 6); // events at t = 0,100,...,500
/// ```
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct InteractionLog {
    events: Vec<Interaction>,
}

impl InteractionLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an interaction.
    ///
    /// # Panics
    ///
    /// Panics if `event.time` is earlier than the last appended event —
    /// the log must stay time-ordered.
    pub fn push(&mut self, event: Interaction) {
        if let Some(last) = self.events.last() {
            assert!(
                event.time >= last.time,
                "interaction log must be appended in time order ({} < {})",
                event.time,
                last.time
            );
        }
        self.events.push(event);
    }

    /// Number of events in the log.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All events, in time order.
    pub fn events(&self) -> &[Interaction] {
        &self.events
    }

    /// The timestamp of the last event, if any.
    pub fn last_time(&self) -> Option<Timestamp> {
        self.events.last().map(|e| e.time)
    }

    /// Events with `start <= time < end`.
    pub fn window(&self, start: Timestamp, end: Timestamp) -> &[Interaction] {
        let lo = self.events.partition_point(|e| e.time < start);
        let hi = self.events.partition_point(|e| e.time < end);
        &self.events[lo..hi]
    }

    /// Builds the cumulative graph of all events with `time <= until`.
    pub fn graph_until(&self, until: Timestamp) -> Graph {
        let hi = self.events.partition_point(|e| e.time <= until);
        Self::graph_of(&self.events[..hi])
    }

    /// Builds the *reduced* graph of events with `start <= time < end`.
    pub fn graph_window(&self, start: Timestamp, end: Timestamp) -> Graph {
        Self::graph_of(self.window(start, end))
    }

    /// Builds a graph from a slice of interactions: each event touches
    /// both endpoints with their kinds, then records the interaction
    /// (see [`GraphBuilder`]).
    pub fn graph_of(events: &[Interaction]) -> Graph {
        let mut b = GraphBuilder::new();
        for e in events {
            b.touch(e.from, e.from_kind);
            b.touch(e.to, e.to_kind);
            b.add_interaction(e.from, e.to, e.weight);
        }
        b.build()
    }
}

impl Extend<Interaction> for InteractionLog {
    fn extend<I: IntoIterator<Item = Interaction>>(&mut self, iter: I) {
        for e in iter {
            self.push(e);
        }
    }
}

impl FromIterator<Interaction> for InteractionLog {
    fn from_iter<I: IntoIterator<Item = Interaction>>(iter: I) -> Self {
        let mut log = InteractionLog::new();
        log.extend(iter);
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, from: u64, to: u64) -> Interaction {
        Interaction::new(
            Timestamp::from_secs(t),
            Address::from_index(from),
            Address::from_index(to),
        )
    }

    #[test]
    fn window_slicing() {
        let log: InteractionLog = (0..10).map(|t| ev(t * 10, t, t + 1)).collect();
        let w = log.window(Timestamp::from_secs(20), Timestamp::from_secs(50));
        assert_eq!(w.len(), 3); // t = 20, 30, 40
        assert_eq!(w[0].time, Timestamp::from_secs(20));
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_push_panics() {
        let mut log = InteractionLog::new();
        log.push(ev(10, 0, 1));
        log.push(ev(5, 1, 2));
    }

    #[test]
    fn graph_until_is_cumulative() {
        let log: InteractionLog = (0..5).map(|t| ev(t, t, t + 1)).collect();
        assert_eq!(log.graph_until(Timestamp::from_secs(2)).edge_count(), 3);
        assert_eq!(log.graph_until(Timestamp::from_secs(100)).edge_count(), 5);
    }

    #[test]
    fn graph_window_is_reduced() {
        let log: InteractionLog = (0..5).map(|t| ev(t * 10, t, t + 1)).collect();
        let g = log.graph_window(Timestamp::from_secs(10), Timestamp::from_secs(30));
        // Only events at t = 10, 20: vertices {1,2,3}, edges 1->2, 2->3.
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn kinds_propagate_to_graph() {
        let mut log = InteractionLog::new();
        log.push(Interaction {
            to_kind: AccountKind::Contract,
            ..ev(0, 1, 2)
        });
        let g = log.graph_until(Timestamp::from_secs(0));
        let contract = g.node_of(Address::from_index(2)).unwrap();
        assert!(g.kind(contract).is_contract());
    }

    #[test]
    fn same_timestamp_events_allowed() {
        let mut log = InteractionLog::new();
        log.push(ev(5, 0, 1));
        log.push(ev(5, 1, 2));
        assert_eq!(log.len(), 2);
        assert_eq!(log.last_time(), Some(Timestamp::from_secs(5)));
    }

    #[test]
    fn empty_log() {
        let log = InteractionLog::new();
        assert!(log.is_empty());
        assert_eq!(log.last_time(), None);
        assert!(log.graph_until(Timestamp::from_secs(1)).is_empty());
    }
}
