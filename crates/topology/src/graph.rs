//! The relationship-annotated AS graph.

use artemis_bgp::Asn;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Defined in [`artemis_bgp::route`], beside the Loc-RIB delta it annotates.
pub use artemis_bgp::RelKind;

/// Errors when mutating an [`AsGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Self-loops are not allowed.
    SelfLoop(Asn),
    /// The pair already has a (possibly different) relationship.
    DuplicateEdge(Asn, Asn),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::SelfLoop(a) => write!(f, "self-loop on {a}"),
            GraphError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a}–{b}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An AS-level topology with business relationships.
///
/// Deterministic by construction: adjacency is kept in `BTreeMap`s so
/// iteration order never depends on hashing.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AsGraph {
    /// asn -> (neighbor -> neighbor's role relative to asn)
    adj: BTreeMap<Asn, BTreeMap<Asn, RelKind>>,
}

impl AsGraph {
    /// An empty graph.
    pub fn new() -> Self {
        AsGraph::default()
    }

    /// Ensure an AS exists (isolated if no edges are added).
    pub fn add_as(&mut self, asn: Asn) {
        self.adj.entry(asn).or_default();
    }

    /// Add a provider→customer edge (`provider` sells transit to
    /// `customer`).
    pub fn add_provider_customer(
        &mut self,
        provider: Asn,
        customer: Asn,
    ) -> Result<(), GraphError> {
        self.add_edge(provider, customer, RelKind::Customer)
    }

    /// Add a settlement-free peering edge.
    pub fn add_peering(&mut self, a: Asn, b: Asn) -> Result<(), GraphError> {
        self.add_edge(a, b, RelKind::Peer)
    }

    fn add_edge(&mut self, a: Asn, b: Asn, b_role_for_a: RelKind) -> Result<(), GraphError> {
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        if self.adj.get(&a).is_some_and(|n| n.contains_key(&b)) {
            return Err(GraphError::DuplicateEdge(a, b));
        }
        self.adj.entry(a).or_default().insert(b, b_role_for_a);
        self.adj
            .entry(b)
            .or_default()
            .insert(a, b_role_for_a.inverse());
        Ok(())
    }

    /// Number of ASes.
    pub fn as_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.values().map(BTreeMap::len).sum::<usize>() / 2
    }

    /// Does the graph contain this AS?
    pub fn contains(&self, asn: Asn) -> bool {
        self.adj.contains_key(&asn)
    }

    /// All ASNs, ascending.
    pub fn ases(&self) -> impl Iterator<Item = Asn> + '_ {
        self.adj.keys().copied()
    }

    /// Neighbors of `asn` with their roles relative to `asn`.
    pub fn neighbors(&self, asn: Asn) -> impl Iterator<Item = (Asn, RelKind)> + '_ {
        self.adj
            .get(&asn)
            .into_iter()
            .flat_map(|m| m.iter().map(|(n, r)| (*n, *r)))
    }

    /// The role of `neighbor` relative to `asn`, if adjacent.
    pub fn relationship(&self, asn: Asn, neighbor: Asn) -> Option<RelKind> {
        self.adj.get(&asn)?.get(&neighbor).copied()
    }

    /// Total degree of an AS.
    pub fn degree(&self, asn: Asn) -> usize {
        self.adj.get(&asn).map_or(0, BTreeMap::len)
    }

    /// The customers of an AS.
    pub fn customers(&self, asn: Asn) -> Vec<Asn> {
        self.filter_neighbors(asn, RelKind::Customer)
    }

    /// The providers of an AS.
    pub fn providers(&self, asn: Asn) -> Vec<Asn> {
        self.filter_neighbors(asn, RelKind::Provider)
    }

    /// The peers of an AS.
    pub fn peers(&self, asn: Asn) -> Vec<Asn> {
        self.filter_neighbors(asn, RelKind::Peer)
    }

    fn filter_neighbors(&self, asn: Asn, kind: RelKind) -> Vec<Asn> {
        self.neighbors(asn)
            .filter(|(_, r)| *r == kind)
            .map(|(n, _)| n)
            .collect()
    }

    /// ASes with no providers (the tier-1 / clique candidates).
    pub fn provider_free(&self) -> Vec<Asn> {
        self.ases()
            .filter(|a| self.providers(*a).is_empty())
            .collect()
    }

    /// ASes with no customers (stubs — where ARTEMIS operators live).
    pub fn stubs(&self) -> Vec<Asn> {
        self.ases()
            .filter(|a| self.customers(*a).is_empty())
            .collect()
    }

    /// Whether every AS can reach every other via *some* undirected path
    /// (policy-blind connectivity sanity check).
    pub fn is_connected(&self) -> bool {
        let Some(start) = self.ases().next() else {
            return true;
        };
        let mut seen = BTreeSet::new();
        let mut stack = vec![start];
        while let Some(a) = stack.pop() {
            if !seen.insert(a) {
                continue;
            }
            stack.extend(self.neighbors(a).map(|(n, _)| n));
        }
        seen.len() == self.as_count()
    }

    /// Degree histogram as (degree, count) pairs sorted by degree —
    /// used by tests to sanity-check generator shape.
    pub fn degree_histogram(&self) -> Vec<(usize, usize)> {
        let mut hist: BTreeMap<usize, usize> = BTreeMap::new();
        for a in self.ases() {
            *hist.entry(self.degree(a)).or_default() += 1;
        }
        hist.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asn(v: u32) -> Asn {
        Asn(v)
    }

    #[test]
    fn add_edge_creates_both_views() {
        let mut g = AsGraph::new();
        g.add_provider_customer(asn(1), asn(2)).unwrap();
        assert_eq!(g.relationship(asn(1), asn(2)), Some(RelKind::Customer));
        assert_eq!(g.relationship(asn(2), asn(1)), Some(RelKind::Provider));
        assert_eq!(g.as_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn peering_is_symmetric() {
        let mut g = AsGraph::new();
        g.add_peering(asn(10), asn(20)).unwrap();
        assert_eq!(g.relationship(asn(10), asn(20)), Some(RelKind::Peer));
        assert_eq!(g.relationship(asn(20), asn(10)), Some(RelKind::Peer));
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = AsGraph::new();
        assert_eq!(
            g.add_peering(asn(5), asn(5)),
            Err(GraphError::SelfLoop(asn(5)))
        );
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut g = AsGraph::new();
        g.add_provider_customer(asn(1), asn(2)).unwrap();
        assert_eq!(
            g.add_peering(asn(1), asn(2)),
            Err(GraphError::DuplicateEdge(asn(1), asn(2)))
        );
        assert_eq!(
            g.add_provider_customer(asn(2), asn(1)),
            Err(GraphError::DuplicateEdge(asn(2), asn(1)))
        );
    }

    #[test]
    fn role_filters() {
        let mut g = AsGraph::new();
        g.add_provider_customer(asn(1), asn(10)).unwrap();
        g.add_provider_customer(asn(2), asn(10)).unwrap();
        g.add_provider_customer(asn(10), asn(100)).unwrap();
        g.add_peering(asn(10), asn(11)).unwrap();
        assert_eq!(g.providers(asn(10)), vec![asn(1), asn(2)]);
        assert_eq!(g.customers(asn(10)), vec![asn(100)]);
        assert_eq!(g.peers(asn(10)), vec![asn(11)]);
        assert_eq!(g.degree(asn(10)), 4);
        assert_eq!(g.degree(asn(999)), 0);
    }

    #[test]
    fn provider_free_and_stubs() {
        let mut g = AsGraph::new();
        g.add_provider_customer(asn(1), asn(2)).unwrap();
        g.add_provider_customer(asn(2), asn(3)).unwrap();
        assert_eq!(g.provider_free(), vec![asn(1)]);
        assert_eq!(g.stubs(), vec![asn(3)]);
    }

    #[test]
    fn connectivity() {
        let mut g = AsGraph::new();
        assert!(g.is_connected()); // vacuous
        g.add_provider_customer(asn(1), asn(2)).unwrap();
        assert!(g.is_connected());
        g.add_as(asn(99));
        assert!(!g.is_connected());
    }

    #[test]
    fn isolated_as_counts() {
        let mut g = AsGraph::new();
        g.add_as(asn(7));
        g.add_as(asn(7));
        assert_eq!(g.as_count(), 1);
        assert!(g.contains(asn(7)));
        assert_eq!(g.neighbors(asn(7)).count(), 0);
    }

    #[test]
    fn degree_histogram_shape() {
        let mut g = AsGraph::new();
        g.add_provider_customer(asn(1), asn(2)).unwrap();
        g.add_provider_customer(asn(1), asn(3)).unwrap();
        let hist = g.degree_histogram();
        assert_eq!(hist, vec![(1, 2), (2, 1)]);
    }

    #[test]
    fn relkind_inverse() {
        assert_eq!(RelKind::Customer.inverse(), RelKind::Provider);
        assert_eq!(RelKind::Provider.inverse(), RelKind::Customer);
        assert_eq!(RelKind::Peer.inverse(), RelKind::Peer);
    }
}
