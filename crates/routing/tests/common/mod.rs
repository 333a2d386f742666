//! Test-side reference models shared by the routing suites.
//!
//! [`rebuild`] is the plain sequential full DBF rebuild: one synchronous
//! round loop over whole distance vectors, written against nothing but the
//! public table API. It is one of the two roots every production path is
//! checked against; the other is the Dijkstra construction in
//! [`spms_routing::oracle_tables_masked`] (see [`assert_matches_roots`]).

#![allow(dead_code)] // each suite uses its own subset

use proptest::prelude::*;
use spms_net::{NodeId, ZoneTable};
use spms_routing::{
    oracle_tables_masked, DbfEngine, DbfStats, DbfWireFormat, RouteEntry, RoutingTable,
};

/// A full distance vector: `(destination, best cost, best hops)` in id
/// order.
pub type Vector = Vec<(NodeId, f64, u32)>;

/// The table operations the reference rebuild needs, so the same round
/// loop can run over the production table and over other table models.
pub trait Table {
    /// An empty table keeping `k` alternatives per destination.
    fn with_k(k: usize) -> Self;
    /// Offers a route; `true` if the table changed.
    fn offer(&mut self, dest: NodeId, entry: RouteEntry) -> bool;
    /// The node's full distance vector.
    fn vector(&self) -> Vector;
}

impl Table for RoutingTable {
    fn with_k(k: usize) -> Self {
        RoutingTable::new(k)
    }

    fn offer(&mut self, dest: NodeId, entry: RouteEntry) -> bool {
        RoutingTable::offer(self, dest, entry)
    }

    fn vector(&self) -> Vector {
        self.iter()
            .map(|(d, routes)| {
                let best = routes.get(0).expect("listed destinations have a route");
                (d, best.cost, best.hops)
            })
            .collect()
    }
}

/// The sequential full rebuild: direct routes for every live zone link,
/// then synchronous rounds in which every node whose table changed in the
/// previous round (every alive node in round 1) broadcasts its whole
/// vector to its alive zone neighbors, until a round is silent. Vectors
/// are snapshotted before any relaxation, and senders deliver in id order.
pub fn rebuild_with<T: Table>(zones: &ZoneTable, k: usize, alive: &[bool]) -> (Vec<T>, DbfStats) {
    let n = zones.len();
    assert_eq!(alive.len(), n, "alive mask length mismatch");
    let mut tables: Vec<T> = (0..n).map(|_| T::with_k(k)).collect();
    for (a, table) in tables.iter_mut().enumerate() {
        if !alive[a] {
            continue;
        }
        for link in zones.links(NodeId::new(a as u32)) {
            if alive[link.neighbor.index()] {
                table.offer(
                    link.neighbor,
                    RouteEntry {
                        via: link.neighbor,
                        cost: link.weight,
                        hops: 1,
                    },
                );
            }
        }
    }

    let wire = DbfWireFormat::default();
    let mut stats = DbfStats {
        per_node_bytes: vec![0; n],
        ..DbfStats::default()
    };
    let mut pending = alive.to_vec();
    let max_rounds = (n as u32).max(8) + 4;
    for _ in 0..max_rounds {
        stats.rounds += 1;
        if !pending.contains(&true) {
            return (tables, stats);
        }
        let snapshot: Vec<(NodeId, Vector)> = (0..n)
            .filter(|&i| pending[i] && alive[i])
            .map(|i| (NodeId::new(i as u32), tables[i].vector()))
            .collect();
        pending = vec![false; n];
        for (from, entries) in &snapshot {
            let bytes = u64::from(wire.message_bytes(entries.len()));
            stats.messages += 1;
            stats.entries_sent += entries.len() as u64;
            stats.bytes_total += bytes;
            stats.per_node_bytes[from.index()] += bytes;
            for link in zones.links(*from) {
                let to = link.neighbor;
                if !alive[to.index()] {
                    continue;
                }
                for &(dest, cost, hops) in entries {
                    // A node only maintains destinations in its own zone.
                    if dest == to || !zones.in_zone(to, dest) {
                        continue;
                    }
                    let entry = RouteEntry {
                        via: *from,
                        cost: link.weight + cost,
                        hops: hops + 1,
                    };
                    if tables[to.index()].offer(dest, entry) {
                        pending[to.index()] = true;
                    }
                }
            }
        }
    }
    panic!("reference DBF failed to converge within {max_rounds} rounds");
}

/// [`rebuild_with`] over the production table.
pub fn rebuild(zones: &ZoneTable, k: usize, alive: &[bool]) -> (Vec<RoutingTable>, DbfStats) {
    rebuild_with(zones, k, alive)
}

/// Checks `engine` against both roots: its tables must equal the
/// reference [`rebuild`] exactly, and agree with the Dijkstra tables on
/// destinations, next hops and hop counts, with costs within a tolerance
/// (the two constructions sum link weights in different orders).
pub fn assert_matches_roots(
    engine: &DbfEngine,
    zones: &ZoneTable,
    alive: &[bool],
    context: &str,
) -> Result<(), TestCaseError> {
    let (reference, _) = rebuild(zones, engine.k(), alive);
    let oracle = oracle_tables_masked(zones, engine.k(), alive);
    for (i, (want, dijkstra)) in reference.iter().zip(&oracle).enumerate() {
        let node = NodeId::new(i as u32);
        let got = engine.table(node);
        prop_assert_eq!(
            got,
            want,
            "{}: node {} diverged from the reference rebuild",
            context,
            node
        );
        let gd: Vec<NodeId> = got.destinations().collect();
        let wd: Vec<NodeId> = dijkstra.destinations().collect();
        prop_assert_eq!(
            gd,
            wd,
            "{}: node {} Dijkstra destination sets",
            context,
            node
        );
        for d in dijkstra.destinations() {
            let a = dijkstra.routes_to(d);
            let b = got.routes_to(d);
            prop_assert_eq!(a.len(), b.len(), "{}: node {} dest {}", context, node, d);
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert_eq!(x.via, y.via, "{}: node {} dest {}", context, node, d);
                prop_assert_eq!(x.hops, y.hops, "{}: node {} dest {}", context, node, d);
                prop_assert!(
                    (x.cost - y.cost).abs() < 1e-9,
                    "{}: node {} dest {}: Dijkstra {} vs dbf {}",
                    context,
                    node,
                    d,
                    x.cost,
                    y.cost
                );
            }
        }
    }
    Ok(())
}
