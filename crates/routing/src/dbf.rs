//! The distributed Bellman-Ford exchange.
//!
//! DBF runs in synchronous rounds: every node whose table changed since its
//! last broadcast sends its distance vector to its zone neighbors (at the
//! zone/ADV power level); receivers relax their tables; the exchange
//! quiesces when a round produces no changes. The paper quotes the classic
//! `O(n·e)` convergence bound and argues zone sizes (5–50 nodes) keep it
//! affordable — our stats let experiments verify that claim directly.
//!
//! Two kinds of re-convergence share the table state:
//!
//! * **Full rebuild** ([`DbfEngine::rebuild_sharded`]) — the paper's
//!   "re-execution of the DBF": every table is cleared, direct routes are
//!   reinstalled, and every node broadcasts its whole vector in round one.
//! * **Incremental delta rebuild** ([`DbfEngine::update_topology`] /
//!   [`DbfEngine::apply_zone_delta`] / [`DbfEngine::invalidate_zone`]) —
//!   real distance-vector deployments propagate triggered *deltas*, not
//!   full vectors. The engine tracks a per-node *dirty set* of
//!   destinations whose advertised route changed since the node's last
//!   broadcast; a topology event invalidates only the destinations it can
//!   actually affect, reseeds their direct routes, and re-converges with
//!   vectors that carry only the changed entries.
//!
//! Both run on one range-partitioned round loop each. A round snapshots
//! its broadcasts by contiguous **sender** ranges, scatters them into
//! per-receiver CSR inboxes, partitions the receivers into contiguous id
//! ranges of balanced relaxation load ([`DbfEngine::with_shards`] sets the
//! number of ranges, default 1), and runs the ranges on the engine's
//! persistent [`WorkerPool`] (parked between rounds, woken by a
//! round-barrier handoff). A single busy range or a light round runs
//! inline on the calling thread, so a one-range engine never starts the
//! pool. Receivers are the unit of ownership: a node's table is only ever
//! touched by the range that owns its id, and each receiver replays its
//! inbox in ascending sender order, so the tables and even the
//! [`DbfStats`] are bit-identical for *every* range count. Thread count
//! can therefore never change routing results, only wall-clock time.
//!
//! The incremental scheme leans on a structural fact of zone routing: a
//! node only maintains destinations inside its own zone, and every relay on
//! a path toward destination `d` must itself maintain `d` — so every route
//! to `d` stays within `d`'s direct zone neighborhood. A node event (move,
//! failure, repair) can therefore only disturb routes to the destinations
//! adjacent to it (under the old or new zone table), and those routes only
//! live at those destinations' direct neighbors. Wiping and reseeding that
//! bounded set, then re-running the exchange restricted to it, provably
//! reaches the same fixpoint as a from-scratch rebuild — bit-for-bit.
//!
//! The tests pin every path against two independent roots: the Dijkstra
//! construction in [`crate::oracle_tables`] and a plain sequential full
//! rebuild kept as a reference model in `crates/routing/tests/`.

use std::collections::BTreeSet;
use std::sync::Arc;

use spms_net::{NodeId, ZoneDelta, ZoneTable};

/// Minimum total relaxation load (vector entries addressed this round)
/// before a sharded round is handed to the persistent worker pool;
/// lighter rounds run inline. A delta convergence tapers — the last few
/// rounds carry a handful of entries — and even the pool's handoff (one
/// mutex/condvar round trip, single-digit microseconds, vs. the tens of
/// microseconds per thread the old per-round `thread::scope` spawns
/// cost) is not worth paying to split a few hundred nanoseconds of
/// relaxation. At ≈ 0.25 µs of relaxation per entry, 256 entries split
/// two ways save ≈ 30 µs against ≈ 5 µs of handoff — comfortably past
/// crossover — while the tail rounds of a convergence stay inline and
/// overhead-free. Purely a scheduling choice: the executed relaxation is
/// identical either way.
const SHARD_MIN_LOAD: u64 = 256;

use crate::pool::WorkerPool;
use crate::{DbfWireFormat, RouteEntry, RoutingTable};

/// Cost accounting for one DBF execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DbfStats {
    /// Synchronous rounds until quiescence (including the final silent one).
    pub rounds: u32,
    /// Vector broadcasts sent.
    pub messages: u64,
    /// Total vector entries across all broadcasts.
    pub entries_sent: u64,
    /// Total bytes on air, per the configured wire format.
    pub bytes_total: u64,
    /// Bytes broadcast by each node (for per-node energy charging).
    pub per_node_bytes: Vec<u64>,
}

/// Reusable buffers for the synchronous exchange, hoisted out of the round
/// loop so steady-state re-convergence allocates nothing.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// Broadcast flags for the current round.
    pending: Vec<bool>,
    /// Broadcast flags accumulated for the next round.
    next_pending: Vec<bool>,
    /// Snapshot arena: every entry broadcast this round, flattened.
    snap_entries: Vec<(NodeId, f64, u32)>,
    /// `(sender, start, end)` ranges into `snap_entries`.
    snap_from: Vec<(NodeId, u32, u32)>,
    /// Membership bitmap for the affected destination set.
    affected: Vec<bool>,
    /// The affected destinations, in id order.
    dests: Vec<NodeId>,
    /// Dense index of each affected destination (`u32::MAX` elsewhere).
    dest_index: Vec<u32>,
    /// `member[a * dests.len() + di]` — does node `a` maintain affected
    /// destination `di` under the new zones? Precomputing the zone scoping
    /// once per event turns the per-entry membership check on the delta
    /// hot path into one array load instead of a binary search.
    member: Vec<bool>,
    /// Nodes with at least one `member` bit — the maintainers whose tables
    /// the invalidation wipe must visit.
    touched: Vec<bool>,
    /// Per-maintainer wipe list, reused across maintainers.
    wipe: Vec<NodeId>,
    /// Sharded rounds: CSR prefix (`n + 1` entries) of each receiver's
    /// inbox for the current round.
    inbox_start: Vec<u32>,
    /// Sharded rounds: `snap_from` index of each inbox vector, grouped by
    /// receiver, in broadcast (sender-id) order within each group.
    inbox_msg: Vec<u32>,
    /// Sharded rounds: the receiver's link weight to each inbox sender.
    inbox_weight: Vec<f64>,
    /// Sharded rounds: per-receiver relaxation load (entries addressed to
    /// it this round) — the shard planner's balancing weight.
    load: Vec<u64>,
    /// Sharded rounds: scatter cursors while filling the inbox.
    fill: Vec<u32>,
    /// Sharded rounds: shard boundary node ids (`bounds[i]..bounds[i+1]`).
    bounds: Vec<usize>,
    /// Sender-sharded snapshots: per-sender snapshot weight (entries the
    /// sender would flatten this round) — the sender planner's balancing
    /// weight.
    snd_load: Vec<u64>,
    /// Sender-sharded snapshots: sender shard boundary node ids.
    snd_bounds: Vec<usize>,
    /// Sender-sharded snapshots: per-shard entry buffers, concatenated in
    /// shard (= sender id) order after the scope joins.
    shard_entries: Vec<Vec<(NodeId, f64, u32)>>,
    /// Sender-sharded snapshots: per-shard `(sender, start, end)` buffers
    /// (ranges relative to the shard's own entry buffer until
    /// concatenation rebases them).
    shard_from: Vec<Vec<(NodeId, u32, u32)>>,
    /// Fused pooled rounds: per-range "this range still has updates to
    /// send" flags — the parallelized form of the round loop's global
    /// quiescence scan.
    range_had: Vec<bool>,
    /// Pooled scatter: each sender's `snap_from` index this round
    /// (`u32::MAX` for nodes that did not broadcast), so receiver-driven
    /// tasks can look their zone neighbors up in O(1).
    msg_of: Vec<u32>,
}

/// The distributed Bellman-Ford engine: one routing table per node.
///
/// # Example
///
/// ```
/// use spms_net::{placement, NodeId, ZoneTable};
/// use spms_phy::RadioProfile;
/// use spms_routing::DbfEngine;
///
/// let topo = placement::grid(3, 3, 5.0).unwrap();
/// let zones = ZoneTable::build(&topo, &RadioProfile::mica2(), 20.0);
/// let mut dbf = DbfEngine::new(&zones, 2);
/// dbf.rebuild_sharded(&zones, &[true; 9]);
/// // The corner reaches the opposite corner through an adjacent node.
/// let best = dbf.table(NodeId::new(0)).best(NodeId::new(8)).unwrap();
/// assert!(best.hops >= 2);
/// ```
#[derive(Debug)]
pub struct DbfEngine {
    tables: Vec<RoutingTable>,
    /// Per-node destinations whose table entries changed since the node's
    /// last broadcast — the triggered-update ("delta") state. Empty at every
    /// convergence point.
    dirty: Vec<BTreeSet<NodeId>>,
    k: usize,
    wire: DbfWireFormat,
    /// Receiver ranges per round (default 1, which always runs inline).
    /// Results are bit-identical for every value.
    shards: usize,
    /// The persistent worker pool (`shards - 1` parked threads; the
    /// dispatching thread is the remaining shard), spun up lazily the
    /// first time a round is heavy enough to split and reused for every
    /// round, epoch, and rebuild after that. Dropped with the engine,
    /// which joins the workers.
    pool: Option<Arc<WorkerPool>>,
    scratch: Scratch,
}

impl Clone for DbfEngine {
    /// Clones the routing state; the clone gets no pool and spins up its
    /// own on first use. Worker threads are wall-clock machinery, not
    /// routing state — sharing them would serialize two engines against
    /// each other, and cloning them would leak idle threads for clones
    /// that never re-converge.
    fn clone(&self) -> Self {
        DbfEngine {
            tables: self.tables.clone(),
            dirty: self.dirty.clone(),
            k: self.k,
            wire: self.wire,
            shards: self.shards,
            pool: None,
            scratch: self.scratch.clone(),
        }
    }
}

impl DbfEngine {
    /// Creates an engine with direct (one-hop) routes installed for every
    /// zone link, keeping `k` alternatives per destination.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(zones: &ZoneTable, k: usize) -> Self {
        let mut engine = DbfEngine {
            tables: (0..zones.len()).map(|_| RoutingTable::new(k)).collect(),
            dirty: vec![BTreeSet::new(); zones.len()],
            k,
            wire: DbfWireFormat::default(),
            shards: 1,
            pool: None,
            scratch: Scratch::default(),
        };
        engine.reset(zones, &vec![true; zones.len()]);
        engine
    }

    /// Overrides the wire format used for byte accounting.
    #[must_use]
    pub fn with_wire_format(mut self, wire: DbfWireFormat) -> Self {
        self.wire = wire;
        self
    }

    /// Cuts every round into up to `shards` receiver ranges (ranges
    /// beyond the round's active receivers idle), run on a persistent
    /// pool of `shards - 1` worker threads plus the calling thread. One
    /// range — the default — always runs inline and never starts the
    /// pool. Tables and stats are bit-identical for every shard count
    /// (property-tested).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "shards must be at least 1");
        self.shards = shards;
        self
    }

    /// The configured shard count.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Whether the persistent worker pool has been spun up. Observability
    /// for the inline-dispatch taper: an engine whose every round stays
    /// under the pool's load threshold must never start worker threads
    /// (pinned by tests), so light workloads on a many-shard engine pay
    /// exactly what a one-shard engine pays.
    #[must_use]
    pub fn pool_started(&self) -> bool {
        self.pool.is_some()
    }

    /// The persistent pool, spun up on first use with `shards - 1` worker
    /// threads (the dispatching thread acts as the final shard). Returns
    /// a clone of the handle so callers can dispatch while `self`'s
    /// fields are mutably borrowed; the `Arc` is an ownership detail, not
    /// a sharing mechanism — each engine has its own pool.
    fn pool(&mut self, shards: usize) -> Arc<WorkerPool> {
        debug_assert!(shards >= 2, "pooled dispatch needs at least two shards");
        match &self.pool {
            Some(pool) if pool.workers() == shards - 1 => Arc::clone(pool),
            _ => {
                let pool = Arc::new(WorkerPool::new(shards - 1));
                self.pool = Some(Arc::clone(&pool));
                pool
            }
        }
    }

    /// The number of route alternatives kept per destination.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Reinstalls direct routes from scratch, skipping dead nodes — the
    /// opening step of [`DbfEngine::rebuild_sharded`].
    fn reset(&mut self, zones: &ZoneTable, alive: &[bool]) {
        assert_eq!(alive.len(), zones.len(), "alive mask length mismatch");
        for table in &mut self.tables {
            table.clear();
        }
        for set in &mut self.dirty {
            set.clear();
        }
        for a in 0..zones.len() {
            if !alive[a] {
                continue;
            }
            let node = NodeId::new(a as u32);
            // Zone links arrive in neighbor-id order, so the direct seeds
            // replay through one ascending cursor per table.
            let mut cursor = 0usize;
            for link in zones.links(node) {
                if !alive[link.neighbor.index()] {
                    continue;
                }
                self.tables[a].offer_ascending(
                    link.neighbor,
                    RouteEntry {
                        via: link.neighbor,
                        cost: link.weight,
                        hops: 1,
                    },
                    &mut cursor,
                );
            }
        }
    }

    /// The full rebuild: every table is cleared and its direct routes
    /// reinstalled, then synchronous full-vector rounds run until
    /// quiescence — the paper's "re-execution of the DBF" after mobility
    /// or failure. In round 1 every alive node broadcasts; thereafter only
    /// nodes whose table changed in the previous round do. A round's
    /// vectors are snapshotted before any relaxation, so the exchange is
    /// order-independent and deterministic.
    ///
    /// Each round scatters the previous round's broadcasts into
    /// per-receiver CSR inboxes, then each receiver range relaxes its
    /// inboxes and immediately flattens its own changed tables into
    /// range-local buffers for the next round's snapshot (concatenated in
    /// id order). Light rounds run inline.
    ///
    /// # Panics
    ///
    /// Panics if the alive mask length does not match, or if the exchange
    /// fails to converge within a generous bound (which would indicate a
    /// negative-cost or bookkeeping bug, as positive-weight DBF always
    /// converges).
    pub fn rebuild_sharded(&mut self, zones: &ZoneTable, alive: &[bool]) -> DbfStats {
        self.reset(zones, alive);
        let mut stats = DbfStats {
            per_node_bytes: vec![0; zones.len()],
            ..DbfStats::default()
        };
        self.run_full_rounds(zones, alive, self.shards, &mut stats);
        stats
    }

    /// The routing table of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn table(&self, node: NodeId) -> &RoutingTable {
        &self.tables[node.index()]
    }

    /// Consumes the engine, yielding all tables indexed by node — a final
    /// snapshot for analysis. This ends the engine's life on purpose: the
    /// tables leave the incremental machinery (dirty sets, scratch) behind,
    /// so they must not be fed back into another exchange.
    #[must_use]
    pub fn into_tables(self) -> Vec<RoutingTable> {
        self.tables
    }

    /// Incrementally re-converges after a node liveness event (failure or
    /// repair) without touching zones the event cannot reach. `changed`
    /// names the nodes whose liveness flipped; `alive` is the new mask.
    /// Equivalent to [`DbfEngine::update_topology`] with identical old and
    /// new zone tables.
    pub fn invalidate_zone(
        &mut self,
        zones: &ZoneTable,
        changed: &[NodeId],
        alive: &[bool],
    ) -> DbfStats {
        self.update_topology(zones, zones, changed, alive)
    }

    /// Incrementally re-converges after a topology change: `changed` names
    /// the nodes that moved (or whose liveness flipped), `old_zones` /
    /// `new_zones` are the zone tables before and after the event, and
    /// `alive` is the current liveness mask.
    ///
    /// Only the destinations a changed node is adjacent to (under either
    /// zone table) can have gained, lost, or re-priced routes — every route
    /// to a destination runs through that destination's direct neighbors.
    /// Those destinations are invalidated at their maintainers, direct
    /// routes are reseeded, and the delta exchange re-converges just that
    /// slice of the network. Tables end bit-identical to a from-scratch
    /// [`DbfEngine::rebuild_sharded`] (property-tested), at a fraction of
    /// the cost.
    ///
    /// # Panics
    ///
    /// Panics if the zone tables or the alive mask disagree on the node
    /// count, or if the exchange fails to converge within the same bound as
    /// the full rebuild.
    pub fn update_topology(
        &mut self,
        old_zones: &ZoneTable,
        new_zones: &ZoneTable,
        changed: &[NodeId],
        alive: &[bool],
    ) -> DbfStats {
        let n = new_zones.len();
        assert_eq!(old_zones.len(), n, "zone table length mismatch");
        assert_eq!(alive.len(), n, "alive mask length mismatch");
        let mut stats = DbfStats {
            per_node_bytes: vec![0; n],
            ..DbfStats::default()
        };

        // Affected destinations: each changed node and everything adjacent
        // to it before or after the event.
        let mut affected = std::mem::take(&mut self.scratch.affected);
        affected.clear();
        affected.resize(n, false);
        for &c in changed {
            affected[c.index()] = true;
            for link in old_zones.links(c) {
                affected[link.neighbor.index()] = true;
            }
            for link in new_zones.links(c) {
                affected[link.neighbor.index()] = true;
            }
        }
        // Every exchange drains the dirty sets before it returns, so the
        // delta rounds can assume each dirty destination they meet was
        // reseeded below and has a dense index.
        debug_assert!(self.dirty.iter().all(BTreeSet::is_empty));
        let mut dests = std::mem::take(&mut self.scratch.dests);
        dests.clear();
        dests.extend(
            (0..n)
                .filter(|&i| affected[i])
                .map(|i| NodeId::new(i as u32)),
        );

        // A changed node that is down holds no routes at all.
        for &c in changed {
            if !alive[c.index()] {
                self.tables[c.index()].clear();
                self.dirty[c.index()].clear();
            }
        }

        // Old maintainers may hold routes the new adjacency no longer
        // justifies: wipe the affected destinations at their *old* zone
        // neighbors first; the shared tail handles the new-adjacency wipe
        // and reseed.
        for &d in &dests {
            for link in old_zones.links(d) {
                let a = link.neighbor.index();
                if alive[a] {
                    self.tables[a].remove_dest(d);
                }
            }
        }
        self.scratch.affected = affected;
        self.scratch.dests = dests;

        self.reconverge_affected(new_zones, alive, &mut stats);
        stats
    }

    /// Incrementally re-converges after an **in-place** zone patch
    /// ([`ZoneTable::apply_moves`]): the old zone table no longer exists,
    /// so the pre-move adjacency needed to retire stale routes comes from
    /// the [`ZoneDelta`] instead. `also_changed` names nodes whose
    /// liveness flipped since the last convergence without a zone change
    /// (their zones are invalidated under the current — unchanged — table,
    /// as [`DbfEngine::invalidate_zone`] would); `alive` is the current
    /// mask. Tables end bit-identical to a from-scratch rebuild under the
    /// patched zones (property-tested alongside
    /// [`DbfEngine::update_topology`]).
    ///
    /// # Panics
    ///
    /// Panics if the zone table and alive mask disagree on the node count,
    /// or if the exchange fails to converge within the same bound as the
    /// full rebuild.
    pub fn apply_zone_delta(
        &mut self,
        zones: &ZoneTable,
        delta: &ZoneDelta,
        also_changed: &[NodeId],
        alive: &[bool],
    ) -> DbfStats {
        let n = zones.len();
        assert_eq!(alive.len(), n, "alive mask length mismatch");
        let mut stats = DbfStats {
            per_node_bytes: vec![0; n],
            ..DbfStats::default()
        };

        // Affected destinations: the patch already rebuilt the rows of
        // every moved node and everyone inside its old or new zone —
        // `changed_nodes` is exactly that set. Liveness flips add their
        // own (unchanged) zones.
        let mut affected = std::mem::take(&mut self.scratch.affected);
        affected.clear();
        affected.resize(n, false);
        for &c in &delta.changed_nodes {
            affected[c.index()] = true;
        }
        for &c in also_changed {
            affected[c.index()] = true;
            for link in zones.links(c) {
                affected[link.neighbor.index()] = true;
            }
        }
        debug_assert!(self.dirty.iter().all(BTreeSet::is_empty));
        let mut dests = std::mem::take(&mut self.scratch.dests);
        dests.clear();
        dests.extend(
            (0..n)
                .filter(|&i| affected[i])
                .map(|i| NodeId::new(i as u32)),
        );

        // A changed node that is down holds no routes at all.
        for c in delta
            .moves
            .iter()
            .map(|mv| mv.node)
            .chain(also_changed.iter().copied())
        {
            if !alive[c.index()] {
                self.tables[c.index()].clear();
                self.dirty[c.index()].clear();
            }
        }

        // The old-adjacency wipe `update_topology` reads from `old_zones`:
        // for non-moved pairs the old and new maintainer sets coincide
        // (their mutual distances did not change), so the only stale state
        // the new table cannot name is between a moved node and its
        // pre-move neighbors — exactly what the delta recorded.
        for mv in &delta.moves {
            let m = mv.node.index();
            for &a in &mv.old_neighbors {
                if alive[a.index()] {
                    self.tables[a.index()].remove_dest(mv.node);
                }
                if alive[m] {
                    self.tables[m].remove_dest(a);
                }
            }
        }
        self.scratch.affected = affected;
        self.scratch.dests = dests;

        self.reconverge_affected(zones, alive, &mut stats);
        stats
    }

    /// Shared tail of the incremental paths. Expects the affected
    /// destination set in `scratch.affected`/`scratch.dests` (and any
    /// old-adjacency wipes already done): wipes every maintainer's routes
    /// to the affected destinations under the **new** adjacency, reseeds
    /// the surviving direct routes, precomputes the delta-round zone
    /// scoping, and re-converges through the range-partitioned delta
    /// rounds.
    fn reconverge_affected(&mut self, zones: &ZoneTable, alive: &[bool], stats: &mut DbfStats) {
        let n = zones.len();
        let dests = std::mem::take(&mut self.scratch.dests);
        // Precompute the zone scoping first: every entry the delta exchange
        // carries targets an affected destination, so one dense
        // (node × affected-dest) bitmap replaces the per-entry `in_zone`
        // lookup; self-links are absent by construction, which also
        // subsumes the `dest == at` skip. The same bitmap doubles as the
        // wipe plan — maintainers of `d` are exactly `d`'s zone neighbors.
        let nd = dests.len();
        let mut dest_index = std::mem::take(&mut self.scratch.dest_index);
        dest_index.clear();
        dest_index.resize(n, u32::MAX);
        let mut member = std::mem::take(&mut self.scratch.member);
        member.clear();
        member.resize(n * nd, false);
        let mut touched = std::mem::take(&mut self.scratch.touched);
        touched.clear();
        touched.resize(n, false);
        for (di, &d) in dests.iter().enumerate() {
            dest_index[d.index()] = di as u32;
            for link in zones.links(d) {
                member[link.neighbor.index() * nd + di] = true;
                touched[link.neighbor.index()] = true;
            }
        }
        // Batched invalidation: each touched maintainer drops its whole
        // affected-destination slice in one arena compaction instead of one
        // shift per destination — the wipe lists grow with the batching
        // window, the compaction cost does not.
        let mut wipe = std::mem::take(&mut self.scratch.wipe);
        for (a, &hit) in touched.iter().enumerate() {
            if !hit || !alive[a] {
                continue;
            }
            wipe.clear();
            let base = a * nd;
            wipe.extend(
                dests
                    .iter()
                    .enumerate()
                    .filter(|&(di, _)| member[base + di])
                    .map(|(_, &d)| d),
            );
            self.tables[a].remove_dests(&wipe);
        }
        self.scratch.wipe = wipe;
        self.scratch.touched = touched;
        // Reseed the surviving direct routes. Link weights are symmetric
        // (shared radio profile), so the d→a weight doubles as a's direct
        // cost to d.
        for &d in &dests {
            if !alive[d.index()] {
                continue; // nobody routes to a dead destination
            }
            for link in zones.links(d) {
                let a = link.neighbor.index();
                if !alive[a] {
                    continue;
                }
                if self.tables[a].offer(
                    d,
                    RouteEntry {
                        via: d,
                        cost: link.weight,
                        hops: 1,
                    },
                ) {
                    self.dirty[a].insert(d);
                }
            }
        }
        self.scratch.dests = dests;
        self.scratch.dest_index = dest_index;
        self.scratch.member = member;

        self.run_delta_rounds(zones, alive, self.shards, stats);
    }

    /// Drains every alive node's dirty set into the snapshot arena. Dead
    /// broadcasters clear silently; an all-withdrawn delta has nothing to
    /// say (its neighbors were invalidated by the same event, so silence
    /// is correct).
    ///
    /// The sender id space is cut into contiguous ranges of balanced
    /// dirty-entry count; each range flattens its vectors (and drains its
    /// dirty sets) into a range-local buffer on the worker pool, and the
    /// buffers are concatenated in range (= sender id) order — the arena
    /// the inline walk builds, byte for byte. Light rounds (or a single
    /// busy range) run the inline walk, so the pool is only ever paid for
    /// when it pays off.
    fn snapshot_delta_round(
        &mut self,
        alive: &[bool],
        shards: usize,
        snap_entries: &mut Vec<(NodeId, f64, u32)>,
        snap_from: &mut Vec<(NodeId, u32, u32)>,
    ) {
        let mut snd_load = std::mem::take(&mut self.scratch.snd_load);
        snd_load.clear();
        snd_load.extend(self.dirty.iter().map(|d| d.len() as u64));
        let mut snd_bounds = std::mem::take(&mut self.scratch.snd_bounds);
        if !plan_sender_shards(&snd_load, shards, &mut snd_bounds) {
            snap_entries.clear();
            snap_from.clear();
            for (i, &up) in alive.iter().enumerate() {
                if self.dirty[i].is_empty() {
                    continue;
                }
                if !up {
                    self.dirty[i].clear();
                    continue;
                }
                let start = snap_entries.len() as u32;
                let table = &self.tables[i];
                snap_entries.extend(
                    self.dirty[i]
                        .iter()
                        .filter_map(|&d| table.best(d).map(|e| (d, e.cost, e.hops))),
                );
                self.dirty[i].clear();
                if snap_entries.len() as u32 == start {
                    continue;
                }
                snap_from.push((NodeId::new(i as u32), start, snap_entries.len() as u32));
            }
        } else {
            let pool = self.pool(shards);
            snap_entries.clear();
            snap_from.clear();
            let mut shard_entries = std::mem::take(&mut self.scratch.shard_entries);
            let mut shard_from = std::mem::take(&mut self.scratch.shard_from);
            let ranges = snd_bounds.len() - 1;
            shard_entries.resize_with(ranges.max(shard_entries.len()), Vec::new);
            shard_from.resize_with(ranges.max(shard_from.len()), Vec::new);
            let tables = &self.tables;
            let mut tasks: Vec<DeltaSnapTask<'_>> = Vec::with_capacity(ranges);
            let mut dirty_rest = self.dirty.as_mut_slice();
            let mut consumed = 0usize;
            for ((w, ebuf), fbuf) in snd_bounds
                .windows(2)
                .zip(shard_entries.iter_mut())
                .zip(shard_from.iter_mut())
            {
                let (lo, hi) = (w[0], w[1]);
                let (dirty_mine, dirty_next) = dirty_rest.split_at_mut(hi - consumed);
                dirty_rest = dirty_next;
                consumed = hi;
                ebuf.clear();
                fbuf.clear();
                if snd_load[lo..hi].iter().all(|&l| l == 0) {
                    continue; // nothing to flatten (or clear) here
                }
                tasks.push(DeltaSnapTask {
                    lo,
                    dirty: dirty_mine,
                    ebuf,
                    fbuf,
                });
            }
            pool.run(&mut tasks, |t| {
                for (off, dirty) in t.dirty.iter_mut().enumerate() {
                    let i = t.lo + off;
                    if dirty.is_empty() {
                        continue;
                    }
                    if !alive[i] {
                        dirty.clear();
                        continue;
                    }
                    let start = t.ebuf.len() as u32;
                    let table = &tables[i];
                    t.ebuf.extend(
                        dirty
                            .iter()
                            .filter_map(|&d| table.best(d).map(|e| (d, e.cost, e.hops))),
                    );
                    dirty.clear();
                    if t.ebuf.len() as u32 == start {
                        continue;
                    }
                    t.fbuf
                        .push((NodeId::new(i as u32), start, t.ebuf.len() as u32));
                }
            });
            concat_snapshots(
                &shard_entries[..ranges],
                &shard_from[..ranges],
                snap_entries,
                snap_from,
            );
            self.scratch.shard_entries = shard_entries;
            self.scratch.shard_from = shard_from;
        }
        self.scratch.snd_load = snd_load;
        self.scratch.snd_bounds = snd_bounds;
    }

    /// The full-rebuild round snapshot: every `pending` alive node flattens
    /// its **whole** table (a node with an empty table still broadcasts an
    /// empty vector, which counts as a message). Same range/concatenate
    /// discipline as [`DbfEngine::snapshot_delta_round`].
    fn snapshot_full_round(
        &mut self,
        alive: &[bool],
        pending: &[bool],
        shards: usize,
        snap_entries: &mut Vec<(NodeId, f64, u32)>,
        snap_from: &mut Vec<(NodeId, u32, u32)>,
    ) {
        snap_entries.clear();
        snap_from.clear();
        let mut snd_load = std::mem::take(&mut self.scratch.snd_load);
        snd_load.clear();
        // +1 keeps empty-table broadcasters visible to the busy-range
        // check — their (empty) vector still counts a message.
        snd_load.extend(
            self.tables
                .iter()
                .enumerate()
                .map(|(i, t)| u64::from(pending[i] && alive[i]) * (t.len() as u64 + 1)),
        );
        let mut snd_bounds = std::mem::take(&mut self.scratch.snd_bounds);
        if !plan_sender_shards(&snd_load, shards, &mut snd_bounds) {
            for i in 0..alive.len() {
                if !(pending[i] && alive[i]) {
                    continue;
                }
                let start = snap_entries.len() as u32;
                self.tables[i].append_vector(snap_entries);
                snap_from.push((NodeId::new(i as u32), start, snap_entries.len() as u32));
            }
        } else {
            let pool = self.pool(shards);
            let mut shard_entries = std::mem::take(&mut self.scratch.shard_entries);
            let mut shard_from = std::mem::take(&mut self.scratch.shard_from);
            let ranges = snd_bounds.len() - 1;
            shard_entries.resize_with(ranges.max(shard_entries.len()), Vec::new);
            shard_from.resize_with(ranges.max(shard_from.len()), Vec::new);
            let tables = &self.tables;
            let mut tasks: Vec<FullSnapTask<'_>> = Vec::with_capacity(ranges);
            for ((w, ebuf), fbuf) in snd_bounds
                .windows(2)
                .zip(shard_entries.iter_mut())
                .zip(shard_from.iter_mut())
            {
                let (lo, hi) = (w[0], w[1]);
                ebuf.clear();
                fbuf.clear();
                if snd_load[lo..hi].iter().all(|&l| l == 0) {
                    continue;
                }
                tasks.push(FullSnapTask { lo, hi, ebuf, fbuf });
            }
            pool.run(&mut tasks, |t| {
                for i in t.lo..t.hi {
                    if !(pending[i] && alive[i]) {
                        continue;
                    }
                    let start = t.ebuf.len() as u32;
                    tables[i].append_vector(t.ebuf);
                    t.fbuf
                        .push((NodeId::new(i as u32), start, t.ebuf.len() as u32));
                }
            });
            concat_snapshots(
                &shard_entries[..ranges],
                &shard_from[..ranges],
                snap_entries,
                snap_from,
            );
            self.scratch.shard_entries = shard_entries;
            self.scratch.shard_from = shard_from;
        }
        self.scratch.snd_load = snd_load;
        self.scratch.snd_bounds = snd_bounds;
    }

    /// Wire accounting for one round's snapshot, shared by the delta and
    /// full-rebuild loops. All sums are integers, so accumulation order
    /// cannot affect the totals — every stats field is byte-identical
    /// across shard counts.
    fn account_delta_round(&self, snap_from: &[(NodeId, u32, u32)], stats: &mut DbfStats) {
        for &(from, start, end) in snap_from {
            let len = (end - start) as usize;
            stats.messages += 1;
            stats.entries_sent += len as u64;
            let bytes = u64::from(self.wire.message_bytes(len));
            stats.bytes_total += bytes;
            stats.per_node_bytes[from.index()] += bytes;
        }
    }

    /// Delta rounds: only nodes with a non-empty dirty set broadcast, and
    /// their vectors carry only the dirty destinations; the exchange
    /// quiesces when every dirty set drains. Heavy rounds run on the
    /// engine's persistent [`WorkerPool`] (up to `shards` threads counting
    /// the dispatcher).
    ///
    /// Each round scatters the previous snapshot's broadcasts into
    /// per-receiver *inboxes* (a CSR over receiver ids, each inbox in
    /// broadcast order — scattered in parallel by receiver range when the
    /// round is heavy), cuts the receiver id space into contiguous ranges
    /// of balanced relaxation load, and hands every range its disjoint
    /// slice of tables and dirty sets. A receiver replays its inbox in
    /// ascending sender order, and no table is shared between ranges, so
    /// the input-order-preserving reduction is simply "the slices land
    /// back where they were cut" — results are bit-identical for every
    /// shard count, including 1 (which never touches the pool).
    ///
    /// The next round's snapshot is **fused** into the relaxation
    /// dispatch: as soon as a range finishes relaxing it drains its own
    /// receivers' dirty sets into range-local buffers while other ranges
    /// are still relaxing, and the barrier's only sequential residue is
    /// concatenating those buffers in id order. The drain is textually
    /// the same flatten the round-opening snapshot performs, just
    /// executed one barrier early — the arena it produces is
    /// byte-identical to the unfused round's (property-tested, tables and
    /// stats).
    fn run_delta_rounds(
        &mut self,
        zones: &ZoneTable,
        alive: &[bool],
        shards: usize,
        stats: &mut DbfStats,
    ) {
        let n = zones.len();
        let nd = self.scratch.dests.len();
        let max_rounds = (n as u32).max(8) + 4;
        // Round 1 opening: the quiescence check and the dirty-set drain.
        // Every later round's snapshot is fused into the dispatch below.
        stats.rounds += 1;
        if self.dirty.iter().all(BTreeSet::is_empty) {
            return; // quiescent: no triggered updates left
        }
        let mut snap_entries = std::mem::take(&mut self.scratch.snap_entries);
        let mut snap_from = std::mem::take(&mut self.scratch.snap_from);
        self.snapshot_delta_round(alive, shards, &mut snap_entries, &mut snap_from);
        self.account_delta_round(&snap_from, stats);
        let dest_index = std::mem::take(&mut self.scratch.dest_index);
        let member = std::mem::take(&mut self.scratch.member);
        let mut inbox_start = std::mem::take(&mut self.scratch.inbox_start);
        let mut inbox_msg = std::mem::take(&mut self.scratch.inbox_msg);
        let mut inbox_weight = std::mem::take(&mut self.scratch.inbox_weight);
        let mut load = std::mem::take(&mut self.scratch.load);
        let mut fill = std::mem::take(&mut self.scratch.fill);
        let mut bounds = std::mem::take(&mut self.scratch.bounds);
        let mut msg_of = std::mem::take(&mut self.scratch.msg_of);
        for _round in 1..max_rounds {
            // Deliver the current snapshot: scatter it into per-receiver
            // inboxes (CSR), then cut the receiver id space into
            // contiguous ranges of ≈ equal relaxation load.
            if shards >= 2 && snap_entries.len() as u64 >= SHARD_MIN_LOAD {
                let pool = self.pool(shards);
                scatter_inboxes_pooled(
                    &pool,
                    zones,
                    alive,
                    &snap_from,
                    &mut inbox_start,
                    &mut inbox_msg,
                    &mut inbox_weight,
                    &mut load,
                    &mut msg_of,
                    shards,
                );
            } else {
                scatter_inboxes(
                    zones,
                    alive,
                    &snap_from,
                    &mut inbox_start,
                    &mut inbox_msg,
                    &mut inbox_weight,
                    &mut load,
                    &mut fill,
                );
            }
            let total_load = plan_bounds(&load, shards, &mut bounds);
            let busy = bounds
                .windows(2)
                .filter(|w| load[w[0]..w[1]].iter().any(|&l| l > 0))
                .count();
            let quiet;
            if busy <= 1 || total_load < SHARD_MIN_LOAD {
                // One busy range (or a light round): run inline — the
                // pool handoff is not worth paying. This is also the
                // shards = 1 path and the taper at the end of every
                // convergence, so light engines never start the pool.
                for to in 0..n {
                    let slot = inbox_start[to] as usize..inbox_start[to + 1] as usize;
                    if slot.is_empty() {
                        continue;
                    }
                    relax_inbox(
                        &mut self.tables[to],
                        &mut self.dirty[to],
                        to * nd,
                        &inbox_msg[slot.clone()],
                        &inbox_weight[slot],
                        &snap_entries,
                        &snap_from,
                        &member,
                        &dest_index,
                    );
                }
                quiet = self.dirty.iter().all(BTreeSet::is_empty);
                if quiet {
                    snap_entries.clear();
                    snap_from.clear();
                } else {
                    self.snapshot_delta_round(alive, shards, &mut snap_entries, &mut snap_from);
                }
            } else {
                let pool = self.pool(shards);
                let ranges = bounds.len() - 1;
                let mut shard_entries = std::mem::take(&mut self.scratch.shard_entries);
                let mut shard_from = std::mem::take(&mut self.scratch.shard_from);
                let mut range_had = std::mem::take(&mut self.scratch.range_had);
                shard_entries.resize_with(ranges.max(shard_entries.len()), Vec::new);
                shard_from.resize_with(ranges.max(shard_from.len()), Vec::new);
                range_had.clear();
                range_had.resize(ranges, false);
                let mut tasks: Vec<DeltaRangeTask<'_>> = Vec::with_capacity(ranges);
                let mut table_rest = self.tables.as_mut_slice();
                let mut dirty_rest = self.dirty.as_mut_slice();
                let mut had_rest = range_had.as_mut_slice();
                let mut consumed = 0usize;
                for ((w, ebuf), fbuf) in bounds
                    .windows(2)
                    .zip(shard_entries.iter_mut())
                    .zip(shard_from.iter_mut())
                {
                    let (lo, hi) = (w[0], w[1]);
                    let (table_mine, table_next) = table_rest.split_at_mut(hi - consumed);
                    let (dirty_mine, dirty_next) = dirty_rest.split_at_mut(hi - consumed);
                    let (had_mine, had_next) = had_rest.split_at_mut(1);
                    table_rest = table_next;
                    dirty_rest = dirty_next;
                    had_rest = had_next;
                    consumed = hi;
                    ebuf.clear();
                    fbuf.clear();
                    if load[lo..hi].iter().all(|&l| l == 0) {
                        // Nothing addressed to this range. Its relax is a
                        // no-op, and its dirty sets are empty by
                        // induction (every round drains the dirty sets it
                        // populates — only a delivery can repopulate
                        // one), so there is nothing to drain either.
                        continue;
                    }
                    tasks.push(DeltaRangeTask {
                        lo,
                        tables: table_mine,
                        dirty: dirty_mine,
                        ebuf,
                        fbuf,
                        had: &mut had_mine[0],
                    });
                }
                pool.run(&mut tasks, |t| {
                    for (off, (table, dirty)) in
                        t.tables.iter_mut().zip(t.dirty.iter_mut()).enumerate()
                    {
                        let to = t.lo + off;
                        let slot = inbox_start[to] as usize..inbox_start[to + 1] as usize;
                        if slot.is_empty() {
                            continue;
                        }
                        relax_inbox(
                            table,
                            dirty,
                            to * nd,
                            &inbox_msg[slot.clone()],
                            &inbox_weight[slot],
                            &snap_entries,
                            &snap_from,
                            &member,
                            &dest_index,
                        );
                    }
                    // Fused next-round snapshot: drain this range's dirty
                    // sets into its shard-local buffers while other
                    // ranges are still relaxing — the same flatten
                    // `snapshot_delta_round` performs at the top of the
                    // next round, one barrier early.
                    for (off, dirty) in t.dirty.iter_mut().enumerate() {
                        let i = t.lo + off;
                        if dirty.is_empty() {
                            continue;
                        }
                        *t.had = true;
                        if !alive[i] {
                            dirty.clear();
                            continue;
                        }
                        let start = t.ebuf.len() as u32;
                        let table = &t.tables[off];
                        t.ebuf.extend(
                            dirty
                                .iter()
                                .filter_map(|&d| table.best(d).map(|e| (d, e.cost, e.hops))),
                        );
                        dirty.clear();
                        if t.ebuf.len() as u32 == start {
                            continue;
                        }
                        t.fbuf
                            .push((NodeId::new(i as u32), start, t.ebuf.len() as u32));
                    }
                });
                quiet = !range_had.iter().any(|&h| h);
                snap_entries.clear();
                snap_from.clear();
                concat_snapshots(
                    &shard_entries[..ranges],
                    &shard_from[..ranges],
                    &mut snap_entries,
                    &mut snap_from,
                );
                self.scratch.shard_entries = shard_entries;
                self.scratch.shard_from = shard_from;
                self.scratch.range_had = range_had;
            }
            // Round bookkeeping at the barrier: count the round the
            // snapshot belongs to, return on the final silent round,
            // account otherwise.
            stats.rounds += 1;
            if quiet {
                self.scratch.dest_index = dest_index;
                self.scratch.member = member;
                self.scratch.inbox_start = inbox_start;
                self.scratch.inbox_msg = inbox_msg;
                self.scratch.inbox_weight = inbox_weight;
                self.scratch.load = load;
                self.scratch.fill = fill;
                self.scratch.bounds = bounds;
                self.scratch.msg_of = msg_of;
                self.scratch.snap_entries = snap_entries;
                self.scratch.snap_from = snap_from;
                return; // quiescent: no triggered updates left
            }
            self.account_delta_round(&snap_from, stats);
        }
        panic!("incremental DBF failed to converge within {max_rounds} rounds");
    }

    /// Full-rebuild rounds: the execution body of
    /// [`DbfEngine::rebuild_sharded`]. Round 1 every alive node broadcasts
    /// its whole vector, thereafter only nodes whose table changed in the
    /// previous round do, and a round's vectors are snapshotted before any
    /// relaxation. Heavy rounds run on the engine's persistent
    /// [`WorkerPool`] for the sender-sharded round-1 snapshot, the
    /// receiver-range inbox scatter, and the receiver-sharded relaxation,
    /// with each later round's snapshot fused into the relaxation dispatch
    /// (a range flattens its changed tables as soon as its own relax
    /// finishes, exactly like the delta loop). Receivers replay their CSR
    /// inboxes in broadcast order over disjoint table slices, so tables,
    /// pending flags, and every stats field are bit-identical for every
    /// shard count.
    fn run_full_rounds(
        &mut self,
        zones: &ZoneTable,
        alive: &[bool],
        shards: usize,
        stats: &mut DbfStats,
    ) {
        assert_eq!(alive.len(), zones.len(), "alive mask length mismatch");
        let n = zones.len();
        let max_rounds = (n as u32).max(8) + 4;
        // Round 1 opening: every alive node is pending and broadcasts its
        // whole (direct-routes-only) vector. Later rounds' snapshots are
        // fused below. Dirty sets stay empty throughout: `reset` cleared
        // them and full rounds track changes in pending flags instead.
        let mut pending = std::mem::take(&mut self.scratch.pending);
        pending.clear();
        pending.extend_from_slice(alive);
        stats.rounds += 1;
        if pending.iter().all(|&p| !p) {
            self.scratch.pending = pending;
            return; // quiescent: nobody has updates to send
        }
        let mut snap_entries = std::mem::take(&mut self.scratch.snap_entries);
        let mut snap_from = std::mem::take(&mut self.scratch.snap_from);
        self.snapshot_full_round(alive, &pending, shards, &mut snap_entries, &mut snap_from);
        self.account_delta_round(&snap_from, stats);
        let mut next_pending = std::mem::take(&mut self.scratch.next_pending);
        let mut inbox_start = std::mem::take(&mut self.scratch.inbox_start);
        let mut inbox_msg = std::mem::take(&mut self.scratch.inbox_msg);
        let mut inbox_weight = std::mem::take(&mut self.scratch.inbox_weight);
        let mut load = std::mem::take(&mut self.scratch.load);
        let mut fill = std::mem::take(&mut self.scratch.fill);
        let mut bounds = std::mem::take(&mut self.scratch.bounds);
        let mut msg_of = std::mem::take(&mut self.scratch.msg_of);
        for _round in 1..max_rounds {
            if shards >= 2 && snap_entries.len() as u64 >= SHARD_MIN_LOAD {
                let pool = self.pool(shards);
                scatter_inboxes_pooled(
                    &pool,
                    zones,
                    alive,
                    &snap_from,
                    &mut inbox_start,
                    &mut inbox_msg,
                    &mut inbox_weight,
                    &mut load,
                    &mut msg_of,
                    shards,
                );
            } else {
                scatter_inboxes(
                    zones,
                    alive,
                    &snap_from,
                    &mut inbox_start,
                    &mut inbox_msg,
                    &mut inbox_weight,
                    &mut load,
                    &mut fill,
                );
            }
            let total_load = plan_bounds(&load, shards, &mut bounds);
            next_pending.clear();
            next_pending.resize(n, false);
            let busy = bounds
                .windows(2)
                .filter(|w| load[w[0]..w[1]].iter().any(|&l| l > 0))
                .count();
            let quiet;
            if busy <= 1 || total_load < SHARD_MIN_LOAD {
                for to in 0..n {
                    let slot = inbox_start[to] as usize..inbox_start[to + 1] as usize;
                    if slot.is_empty() {
                        continue;
                    }
                    relax_inbox_full(
                        &mut self.tables[to],
                        &mut next_pending[to],
                        NodeId::new(to as u32),
                        &inbox_msg[slot.clone()],
                        &inbox_weight[slot],
                        &snap_entries,
                        &snap_from,
                        zones,
                    );
                }
                quiet = next_pending.iter().all(|&p| !p);
                if quiet {
                    snap_entries.clear();
                    snap_from.clear();
                } else {
                    self.snapshot_full_round(
                        alive,
                        &next_pending,
                        shards,
                        &mut snap_entries,
                        &mut snap_from,
                    );
                }
            } else {
                let pool = self.pool(shards);
                let ranges = bounds.len() - 1;
                let mut shard_entries = std::mem::take(&mut self.scratch.shard_entries);
                let mut shard_from = std::mem::take(&mut self.scratch.shard_from);
                let mut range_had = std::mem::take(&mut self.scratch.range_had);
                shard_entries.resize_with(ranges.max(shard_entries.len()), Vec::new);
                shard_from.resize_with(ranges.max(shard_from.len()), Vec::new);
                range_had.clear();
                range_had.resize(ranges, false);
                let mut tasks: Vec<FullRangeTask<'_>> = Vec::with_capacity(ranges);
                let mut table_rest = self.tables.as_mut_slice();
                let mut flag_rest = next_pending.as_mut_slice();
                let mut had_rest = range_had.as_mut_slice();
                let mut consumed = 0usize;
                for ((w, ebuf), fbuf) in bounds
                    .windows(2)
                    .zip(shard_entries.iter_mut())
                    .zip(shard_from.iter_mut())
                {
                    let (lo, hi) = (w[0], w[1]);
                    let (table_mine, table_next) = table_rest.split_at_mut(hi - consumed);
                    let (flag_mine, flag_next) = flag_rest.split_at_mut(hi - consumed);
                    let (had_mine, had_next) = had_rest.split_at_mut(1);
                    table_rest = table_next;
                    flag_rest = flag_next;
                    had_rest = had_next;
                    consumed = hi;
                    ebuf.clear();
                    fbuf.clear();
                    if load[lo..hi].iter().all(|&l| l == 0) {
                        // Nothing addressed to this range: no relax, no
                        // flags to set, nothing to flatten (flags were
                        // just cleared for the whole id space).
                        continue;
                    }
                    tasks.push(FullRangeTask {
                        lo,
                        tables: table_mine,
                        flags: flag_mine,
                        ebuf,
                        fbuf,
                        had: &mut had_mine[0],
                    });
                }
                pool.run(&mut tasks, |t| {
                    for (off, (table, flag)) in
                        t.tables.iter_mut().zip(t.flags.iter_mut()).enumerate()
                    {
                        let to = t.lo + off;
                        let slot = inbox_start[to] as usize..inbox_start[to + 1] as usize;
                        if slot.is_empty() {
                            continue;
                        }
                        relax_inbox_full(
                            table,
                            flag,
                            NodeId::new(to as u32),
                            &inbox_msg[slot.clone()],
                            &inbox_weight[slot],
                            &snap_entries,
                            &snap_from,
                            zones,
                        );
                    }
                    // Fused next-round snapshot: a changed (= flagged)
                    // node always broadcasts its whole vector, empty or
                    // not — the same unconditional push the inline
                    // snapshot performs. Flags are only ever set for
                    // alive receivers (dead nodes get no deliveries), so
                    // the `alive` guard mirrors the inline snapshot's
                    // check without changing behavior.
                    for (off, &flag) in t.flags.iter().enumerate() {
                        let i = t.lo + off;
                        if !(flag && alive[i]) {
                            continue;
                        }
                        *t.had = true;
                        let start = t.ebuf.len() as u32;
                        t.tables[off].append_vector(t.ebuf);
                        t.fbuf
                            .push((NodeId::new(i as u32), start, t.ebuf.len() as u32));
                    }
                });
                quiet = !range_had.iter().any(|&h| h);
                snap_entries.clear();
                snap_from.clear();
                concat_snapshots(
                    &shard_entries[..ranges],
                    &shard_from[..ranges],
                    &mut snap_entries,
                    &mut snap_from,
                );
                self.scratch.shard_entries = shard_entries;
                self.scratch.shard_from = shard_from;
                self.scratch.range_had = range_had;
            }
            stats.rounds += 1;
            if quiet {
                self.scratch.pending = pending;
                self.scratch.next_pending = next_pending;
                self.scratch.inbox_start = inbox_start;
                self.scratch.inbox_msg = inbox_msg;
                self.scratch.inbox_weight = inbox_weight;
                self.scratch.load = load;
                self.scratch.fill = fill;
                self.scratch.bounds = bounds;
                self.scratch.msg_of = msg_of;
                self.scratch.snap_entries = snap_entries;
                self.scratch.snap_from = snap_from;
                return; // quiescent: nobody has updates to send
            }
            self.account_delta_round(&snap_from, stats);
        }
        panic!("DBF failed to converge within {max_rounds} rounds");
    }
}

/// Cuts `0..load.len()` into at most `shards` contiguous ranges of ≈ equal
/// total load, writing the boundary ids into `bounds`
/// (`bounds[i]..bounds[i+1]`; always covers the whole id space). Returns
/// the total load, the caller's pool-dispatch threshold input. Shared by
/// the receiver planner of both round loops and the sender planner of the
/// snapshots.
fn plan_bounds(load: &[u64], shards: usize, bounds: &mut Vec<usize>) -> u64 {
    let n = load.len();
    let total: u64 = load.iter().sum();
    bounds.clear();
    bounds.push(0);
    if shards > 1 && total > 0 {
        let target = total.div_ceil(shards as u64);
        let mut acc = 0u64;
        for (i, &l) in load.iter().enumerate() {
            acc += l;
            if acc >= target && bounds.len() < shards && i + 1 < n {
                bounds.push(i + 1);
                acc = 0;
            }
        }
    }
    bounds.push(n);
    total
}

/// Plans a sender-sharded snapshot: cuts the sender id space into ranges
/// of balanced snapshot weight (via [`plan_bounds`] into `snd_bounds`) and
/// decides whether shard threads pay off — more than one busy range and a
/// total weight at or above [`SHARD_MIN_LOAD`]. Returns `false` when the
/// caller should run its inline snapshot. Shared by the delta
/// and full-rebuild snapshot scatters, so the spawn policy cannot drift
/// between them.
fn plan_sender_shards(snd_load: &[u64], shards: usize, snd_bounds: &mut Vec<usize>) -> bool {
    let total = plan_bounds(snd_load, shards, snd_bounds);
    let busy = snd_bounds
        .windows(2)
        .filter(|w| snd_load[w[0]..w[1]].iter().any(|&l| l > 0))
        .count();
    busy > 1 && total >= SHARD_MIN_LOAD
}

/// Scatters one round's broadcasts into per-receiver CSR inboxes.
/// Iterating senders in snapshot order makes every inbox replay its
/// vectors in ascending sender order. Fills `inbox_start` (`n + 1`
/// prefix entries), `inbox_msg`/`inbox_weight` (one slot per delivery) and
/// `load` (per-receiver relaxation entries — the shard planner's balancing
/// weight); `fill` is cursor scratch. Shared by the delta rounds and the
/// full rebuild.
#[allow(clippy::too_many_arguments)]
fn scatter_inboxes(
    zones: &ZoneTable,
    alive: &[bool],
    snap_from: &[(NodeId, u32, u32)],
    inbox_start: &mut Vec<u32>,
    inbox_msg: &mut Vec<u32>,
    inbox_weight: &mut Vec<f64>,
    load: &mut Vec<u64>,
    fill: &mut Vec<u32>,
) {
    let n = alive.len();
    inbox_start.clear();
    inbox_start.resize(n + 1, 0);
    for &(from, _, _) in snap_from {
        for link in zones.links(from) {
            let to = link.neighbor.index();
            if alive[to] {
                inbox_start[to + 1] += 1;
            }
        }
    }
    for i in 0..n {
        inbox_start[i + 1] += inbox_start[i];
    }
    let total = inbox_start[n] as usize;
    inbox_msg.clear();
    inbox_msg.resize(total, 0);
    inbox_weight.clear();
    inbox_weight.resize(total, 0.0);
    load.clear();
    load.resize(n, 0);
    fill.clear();
    fill.extend_from_slice(&inbox_start[..n]);
    for (mi, &(from, start, end)) in snap_from.iter().enumerate() {
        let entries = u64::from(end - start);
        for link in zones.links(from) {
            let to = link.neighbor.index();
            if !alive[to] {
                continue;
            }
            let at = fill[to] as usize;
            fill[to] += 1;
            inbox_msg[at] = mi as u32;
            inbox_weight[at] = link.weight;
            load[to] += entries;
        }
    }
}

/// One sender range of a pooled delta snapshot: drain `dirty` (node ids
/// offset by `lo`) into the range's shard-local buffers.
struct DeltaSnapTask<'a> {
    lo: usize,
    dirty: &'a mut [BTreeSet<NodeId>],
    ebuf: &'a mut Vec<(NodeId, f64, u32)>,
    fbuf: &'a mut Vec<(NodeId, u32, u32)>,
}

/// One sender range of a pooled full-rebuild snapshot: flatten every
/// pending alive table in `lo..hi` into the range's shard-local buffers.
struct FullSnapTask<'a> {
    lo: usize,
    hi: usize,
    ebuf: &'a mut Vec<(NodeId, f64, u32)>,
    fbuf: &'a mut Vec<(NodeId, u32, u32)>,
}

/// One receiver range of a fused delta round: relax the range's inboxes,
/// then immediately drain its dirty sets into the next round's
/// shard-local snapshot buffers (setting `had` if any set was non-empty —
/// the range's vote in the quiescence check).
struct DeltaRangeTask<'a> {
    lo: usize,
    tables: &'a mut [RoutingTable],
    dirty: &'a mut [BTreeSet<NodeId>],
    ebuf: &'a mut Vec<(NodeId, f64, u32)>,
    fbuf: &'a mut Vec<(NodeId, u32, u32)>,
    had: &'a mut bool,
}

/// One receiver range of a fused full-rebuild round: like
/// [`DeltaRangeTask`] with change flags in place of dirty sets.
struct FullRangeTask<'a> {
    lo: usize,
    tables: &'a mut [RoutingTable],
    flags: &'a mut [bool],
    ebuf: &'a mut Vec<(NodeId, f64, u32)>,
    fbuf: &'a mut Vec<(NodeId, u32, u32)>,
    had: &'a mut bool,
}

/// One receiver range of the pooled scatter's count pass: `counts` and
/// `load` are the range's own slices (`counts[i]` belongs to receiver
/// `lo + i`).
struct ScatterCountTask<'a> {
    lo: usize,
    counts: &'a mut [u32],
    load: &'a mut [u64],
}

/// One receiver range of the pooled scatter's placement pass: `msg` /
/// `weight` are the range's contiguous CSR segment
/// (`inbox_start[lo]..inbox_start[hi]`).
struct ScatterPlaceTask<'a> {
    lo: usize,
    hi: usize,
    msg: &'a mut [u32],
    weight: &'a mut [f64],
}

/// [`scatter_inboxes`] by receiver range on the worker pool, producing a
/// byte-identical CSR. The inline scatter is sender-driven — each
/// broadcast pushes into per-receiver cursors, an inherently serial
/// pointer chase over random receivers. The pooled scatter inverts it:
/// every receiver range **pulls** from its own zone links. That leans on
/// two structural facts, both pinned by the scatter differential test:
/// zone links are symmetric with equal weight (`b ∈ links(a) ⟺ a ∈
/// links(b)`; both rows are computed from the same Euclidean distance and
/// radio profile), and links are stored in ascending neighbor id — which
/// is exactly ascending snapshot order, so a pulled inbox replays the
/// same broadcast order the inline scatter delivers. Count and
/// placement are both range-parallel (a range owns its count slice and
/// its contiguous CSR segment); the only sequential residue is the O(n)
/// prefix sum and the O(n + messages) sender index.
#[allow(clippy::too_many_arguments)]
fn scatter_inboxes_pooled(
    pool: &WorkerPool,
    zones: &ZoneTable,
    alive: &[bool],
    snap_from: &[(NodeId, u32, u32)],
    inbox_start: &mut Vec<u32>,
    inbox_msg: &mut Vec<u32>,
    inbox_weight: &mut Vec<f64>,
    load: &mut Vec<u64>,
    msg_of: &mut Vec<u32>,
    ranges: usize,
) {
    let n = alive.len();
    // The sender index: each broadcaster's `snap_from` position,
    // `u32::MAX` for nodes that are silent this round.
    msg_of.clear();
    msg_of.resize(n, u32::MAX);
    for (mi, &(from, _, _)) in snap_from.iter().enumerate() {
        msg_of[from.index()] = mi as u32;
    }
    if inbox_start.len() != n + 1 {
        inbox_start.clear();
        inbox_start.resize(n + 1, 0);
    }
    if load.len() != n {
        load.clear();
        load.resize(n, 0);
    }
    let width = n.div_ceil(ranges.max(1)).max(1);
    {
        let msg_of = &*msg_of;
        let mut tasks: Vec<ScatterCountTask<'_>> = inbox_start[1..=n]
            .chunks_mut(width)
            .zip(load.chunks_mut(width))
            .enumerate()
            .map(|(j, (counts, load))| ScatterCountTask {
                lo: j * width,
                counts,
                load,
            })
            .collect();
        pool.run(&mut tasks, |t| {
            t.counts.fill(0);
            t.load.fill(0);
            for off in 0..t.counts.len() {
                let to = t.lo + off;
                if !alive[to] {
                    continue;
                }
                for link in zones.links(NodeId::new(to as u32)) {
                    let mi = msg_of[link.neighbor.index()];
                    if mi == u32::MAX {
                        continue;
                    }
                    let (_, start, end) = snap_from[mi as usize];
                    t.counts[off] += 1;
                    t.load[off] += u64::from(end - start);
                }
            }
        });
    }
    inbox_start[0] = 0;
    for i in 0..n {
        inbox_start[i + 1] += inbox_start[i];
    }
    let total = inbox_start[n] as usize;
    // Grow-only, unlike the sequential scatter's exact resize: every slot
    // in `..total` is written by exactly one placement task below, and
    // nothing reads past `inbox_start[n]`, so stale capacity is inert —
    // and steady-state rounds skip the O(total) zeroing memset entirely.
    if inbox_msg.len() < total {
        inbox_msg.resize(total, 0);
        inbox_weight.resize(total, 0.0);
    }
    let msg_of = &*msg_of;
    let mut tasks: Vec<ScatterPlaceTask<'_>> = Vec::with_capacity(n.div_ceil(width));
    let mut msg_rest = &mut inbox_msg[..total];
    let mut weight_rest = &mut inbox_weight[..total];
    let mut lo = 0usize;
    while lo < n {
        let hi = (lo + width).min(n);
        let seg = (inbox_start[hi] - inbox_start[lo]) as usize;
        let (msg_mine, msg_next) = msg_rest.split_at_mut(seg);
        let (weight_mine, weight_next) = weight_rest.split_at_mut(seg);
        msg_rest = msg_next;
        weight_rest = weight_next;
        if seg > 0 {
            tasks.push(ScatterPlaceTask {
                lo,
                hi,
                msg: msg_mine,
                weight: weight_mine,
            });
        }
        lo = hi;
    }
    pool.run(&mut tasks, |t| {
        let mut cur = 0usize;
        for (to, &ok) in alive.iter().enumerate().take(t.hi).skip(t.lo) {
            if !ok {
                continue;
            }
            for link in zones.links(NodeId::new(to as u32)) {
                let mi = msg_of[link.neighbor.index()];
                if mi == u32::MAX {
                    continue;
                }
                t.msg[cur] = mi;
                t.weight[cur] = link.weight;
                cur += 1;
            }
        }
        debug_assert_eq!(cur, t.msg.len(), "pooled scatter count/placement drift");
    });
}

/// Concatenates shard-local snapshot buffers into the round arena in shard
/// (= ascending sender id) order, rebasing each shard's `(sender, start,
/// end)` ranges onto the concatenated entry array — the output is the
/// byte-identical arena the inline snapshot builds.
fn concat_snapshots(
    shard_entries: &[Vec<(NodeId, f64, u32)>],
    shard_from: &[Vec<(NodeId, u32, u32)>],
    snap_entries: &mut Vec<(NodeId, f64, u32)>,
    snap_from: &mut Vec<(NodeId, u32, u32)>,
) {
    for (ebuf, fbuf) in shard_entries.iter().zip(shard_from) {
        let base = snap_entries.len() as u32;
        snap_entries.extend_from_slice(ebuf);
        snap_from.extend(fbuf.iter().map(|&(from, s, e)| (from, s + base, e + base)));
    }
}

/// One receiver's relaxation for one delta round: replays the inbox
/// (vector indexes + link weights, in broadcast order) against the
/// receiver's table, recording changed destinations in its dirty set.
/// `member_base` is the receiver's row offset into the scoping bitmap.
/// Free-standing so shard threads can run it on their disjoint slices.
#[allow(clippy::too_many_arguments)]
fn relax_inbox(
    table: &mut RoutingTable,
    dirty: &mut BTreeSet<NodeId>,
    member_base: usize,
    msgs: &[u32],
    weights: &[f64],
    snap_entries: &[(NodeId, f64, u32)],
    snap_from: &[(NodeId, u32, u32)],
    member: &[bool],
    dest_index: &[u32],
) {
    for (&mi, &w) in msgs.iter().zip(weights) {
        let (from, start, end) = snap_from[mi as usize];
        let entries = &snap_entries[start as usize..end as usize];
        // Delta vectors carry their destinations in ascending id order,
        // so each vector replays through one ascending offer cursor.
        let mut cursor = 0usize;
        for &(dest, cost, hops) in entries {
            let di = dest_index[dest.index()] as usize;
            if !member[member_base + di] {
                continue;
            }
            if table.offer_ascending(
                dest,
                RouteEntry {
                    via: from,
                    cost: w + cost,
                    hops: hops + 1,
                },
                &mut cursor,
            ) {
                dirty.insert(dest);
            }
        }
    }
}

/// One receiver's relaxation for one **full-rebuild** round: like
/// [`relax_inbox`], but vectors carry whole tables, so zone scoping is the
/// zone table's own membership test (`ZoneTable::in_zone`) instead of the
/// affected-destination bitmap, and a change marks the receiver's
/// next-round pending flag rather than a dirty set.
#[allow(clippy::too_many_arguments)]
fn relax_inbox_full(
    table: &mut RoutingTable,
    pending_flag: &mut bool,
    at: NodeId,
    msgs: &[u32],
    weights: &[f64],
    snap_entries: &[(NodeId, f64, u32)],
    snap_from: &[(NodeId, u32, u32)],
    zones: &ZoneTable,
) {
    for (&mi, &w) in msgs.iter().zip(weights) {
        let (from, start, end) = snap_from[mi as usize];
        let entries = &snap_entries[start as usize..end as usize];
        let mut cursor = 0usize;
        for &(dest, cost, hops) in entries {
            if dest == at {
                continue;
            }
            // Zone scoping: `at` only maintains destinations in its own
            // zone.
            if !zones.in_zone(at, dest) {
                continue;
            }
            if table.offer_ascending(
                dest,
                RouteEntry {
                    via: from,
                    cost: w + cost,
                    hops: hops + 1,
                },
                &mut cursor,
            ) {
                *pending_flag = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms_net::placement;
    use spms_phy::RadioProfile;

    fn zones(cols: usize, rows: usize) -> ZoneTable {
        let topo = placement::grid(cols, rows, 5.0).unwrap();
        ZoneTable::build(&topo, &RadioProfile::mica2(), 20.0)
    }

    /// Full rebuild with every node alive.
    fn rebuild_all(dbf: &mut DbfEngine, zones: &ZoneTable) -> DbfStats {
        dbf.rebuild_sharded(zones, &vec![true; zones.len()])
    }

    #[test]
    fn line_converges_to_min_hop_chain() {
        let z = zones(5, 1);
        let mut dbf = DbfEngine::new(&z, 2);
        let stats = rebuild_all(&mut dbf, &z);
        assert!(stats.messages > 0);
        let t4 = dbf.table(NodeId::new(4));
        let best = t4.best(NodeId::new(0)).unwrap();
        assert_eq!(best.via, NodeId::new(3));
        assert_eq!(best.hops, 4);
        assert!((best.cost - 0.05).abs() < 1e-9);
    }

    #[test]
    fn direct_routes_exist_before_any_exchange() {
        let z = zones(3, 1);
        let dbf = DbfEngine::new(&z, 2);
        let t0 = dbf.table(NodeId::new(0));
        assert_eq!(t0.best(NodeId::new(1)).unwrap().hops, 1);
        assert_eq!(t0.best(NodeId::new(2)).unwrap().hops, 1);
    }

    #[test]
    fn second_route_provides_failover() {
        // 3×3 grid: center-to-corner has two equal shortest paths, so k=2
        // tables hold a genuine alternative.
        let z = zones(3, 3);
        let mut dbf = DbfEngine::new(&z, 2);
        rebuild_all(&mut dbf, &z);
        let t0 = dbf.table(NodeId::new(0));
        let routes = t0.routes_to(NodeId::new(8));
        assert_eq!(routes.len(), 2);
        assert_ne!(routes.get(0).unwrap().via, routes.get(1).unwrap().via);
    }

    #[test]
    fn masked_run_ignores_dead_nodes() {
        let z = zones(3, 1);
        let mut dbf = DbfEngine::new(&z, 2);
        let mut alive = vec![true; 3];
        alive[1] = false;
        dbf.rebuild_sharded(&z, &alive);
        let t0 = dbf.table(NodeId::new(0));
        // Node 2 is still reachable directly (10 m), never via dead node 1.
        let best = t0.best(NodeId::new(2)).unwrap();
        assert_eq!(best.via, NodeId::new(2));
        assert_eq!(t0.routes_to(NodeId::new(2)).len(), 1);
        assert!(t0.best(NodeId::new(1)).is_none());
    }

    #[test]
    fn stats_account_messages_and_bytes() {
        let z = zones(4, 4);
        let mut dbf = DbfEngine::new(&z, 2);
        let stats = rebuild_all(&mut dbf, &z);
        assert_eq!(stats.per_node_bytes.len(), 16);
        let per_node_sum: u64 = stats.per_node_bytes.iter().sum();
        assert_eq!(per_node_sum, stats.bytes_total);
        assert!(stats.entries_sent >= stats.messages); // vectors are non-trivial
        let wire = DbfWireFormat::default();
        assert!(stats.bytes_total >= stats.messages * u64::from(wire.header_bytes));
        // Convergence should be far below the panic bound.
        assert!(stats.rounds <= 8, "rounds = {}", stats.rounds);
    }

    #[test]
    fn rerun_after_reset_is_idempotent() {
        let z = zones(4, 1);
        let mut dbf = DbfEngine::new(&z, 2);
        rebuild_all(&mut dbf, &z);
        let before = dbf.table(NodeId::new(0)).clone();
        dbf.reset(&z, &[true; 4]);
        rebuild_all(&mut dbf, &z);
        assert_eq!(*dbf.table(NodeId::new(0)), before);
    }

    #[test]
    fn no_op_invalidation_quiesces_in_one_silent_round() {
        let z = zones(4, 4);
        let mut dbf = DbfEngine::new(&z, 2);
        rebuild_all(&mut dbf, &z);
        // "Invalidate" a node that did not actually change: the wipe and
        // reseed re-derive the same tables and the exchange stays local.
        let alive = vec![true; z.len()];
        let stats = dbf.invalidate_zone(&z, &[NodeId::new(5)], &alive);
        let mut reference = DbfEngine::new(&z, 2);
        rebuild_all(&mut reference, &z);
        for i in 0..z.len() {
            let node = NodeId::new(i as u32);
            assert_eq!(dbf.table(node), reference.table(node), "node {node}");
        }
        // Far cheaper than the full rebuild's all-nodes rounds.
        assert!(stats.messages < (z.len() as u64) * u64::from(stats.rounds));
    }

    #[test]
    fn kill_and_revive_match_full_rebuild() {
        let z = zones(5, 5);
        let mut dbf = DbfEngine::new(&z, 2);
        rebuild_all(&mut dbf, &z);
        let mut alive = vec![true; z.len()];

        alive[12] = false; // kill the center
        dbf.invalidate_zone(&z, &[NodeId::new(12)], &alive);
        let mut reference = DbfEngine::new(&z, 2);
        reference.rebuild_sharded(&z, &alive);
        for i in 0..z.len() {
            let node = NodeId::new(i as u32);
            assert_eq!(dbf.table(node), reference.table(node), "dead: node {node}");
        }

        alive[12] = true; // and bring it back
        dbf.invalidate_zone(&z, &[NodeId::new(12)], &alive);
        let mut reference = DbfEngine::new(&z, 2);
        reference.rebuild_sharded(&z, &alive);
        for i in 0..z.len() {
            let node = NodeId::new(i as u32);
            assert_eq!(dbf.table(node), reference.table(node), "back: node {node}");
        }
    }

    #[test]
    fn single_move_matches_full_rebuild() {
        let mut topo = placement::grid(5, 5, 5.0).unwrap();
        let radio = RadioProfile::mica2();
        let old_zones = ZoneTable::build(&topo, &radio, 20.0);
        let mut dbf = DbfEngine::new(&old_zones, 2);
        rebuild_all(&mut dbf, &old_zones);

        let moved = NodeId::new(7);
        topo.move_node(moved, spms_net::Point::new(19.0, 17.0));
        let new_zones = ZoneTable::build(&topo, &radio, 20.0);
        let alive = vec![true; new_zones.len()];
        let stats = dbf.update_topology(&old_zones, &new_zones, &[moved], &alive);
        assert!(stats.messages > 0);
        assert!(stats.bytes_total > 0);
        assert_eq!(
            stats.per_node_bytes.iter().sum::<u64>(),
            stats.bytes_total,
            "per-node byte accounting must add up"
        );

        let mut reference = DbfEngine::new(&new_zones, 2);
        rebuild_all(&mut reference, &new_zones);
        for i in 0..new_zones.len() {
            let node = NodeId::new(i as u32);
            assert_eq!(dbf.table(node), reference.table(node), "node {node}");
        }
    }

    #[test]
    fn zone_delta_path_matches_full_rebuild() {
        // The in-place variant: zones patched by `apply_moves`, routing
        // re-converged from the ZoneDelta (no old zone table anywhere),
        // with a silent liveness flip folded in on top.
        let mut topo = placement::grid(5, 5, 5.0).unwrap();
        let radio = RadioProfile::mica2();
        let mut grid = spms_net::SpatialGrid::build(&topo, 20.0);
        let mut zones = ZoneTable::build_indexed(&topo, &radio, &grid, 20.0);
        let mut dbf = DbfEngine::new(&zones, 2);
        rebuild_all(&mut dbf, &zones);

        let moved = NodeId::new(7);
        let mut alive = vec![true; zones.len()];
        alive[18] = false; // silent flip, reported via `also_changed`
        topo.move_node(moved, spms_net::Point::new(19.0, 17.0));
        grid.move_node(moved, topo.position(moved));
        let delta = zones.apply_moves(&topo, &radio, &grid, &[moved]);
        let stats = dbf.apply_zone_delta(&zones, &delta, &[NodeId::new(18)], &alive);
        assert!(stats.messages > 0);
        assert_eq!(stats.per_node_bytes.iter().sum::<u64>(), stats.bytes_total);

        let mut reference = DbfEngine::new(&zones, 2);
        reference.rebuild_sharded(&zones, &alive);
        for i in 0..zones.len() {
            let node = NodeId::new(i as u32);
            assert_eq!(dbf.table(node), reference.table(node), "node {node}");
        }
    }

    #[test]
    fn sharded_delta_matches_sequential_tables_and_stats() {
        // The same move replayed on a default (one-range) engine and on
        // engines with 1, 2 and 8 partitions must agree on every table AND
        // on every stats field — thread count can never change results.
        let mut topo = placement::grid(7, 7, 5.0).unwrap();
        let radio = RadioProfile::mica2();
        let old_zones = ZoneTable::build(&topo, &radio, 20.0);
        let moved = NodeId::new(24);
        topo.move_node(moved, spms_net::Point::new(3.0, 29.0));
        let new_zones = ZoneTable::build(&topo, &radio, 20.0);
        let alive = vec![true; new_zones.len()];

        let mut sequential = DbfEngine::new(&old_zones, 2);
        rebuild_all(&mut sequential, &old_zones);
        let want = sequential.update_topology(&old_zones, &new_zones, &[moved], &alive);
        assert!(want.messages > 0);

        for shards in [1usize, 2, 8] {
            let mut sharded = DbfEngine::new(&old_zones, 2).with_shards(shards);
            assert_eq!(sharded.shards(), shards);
            rebuild_all(&mut sharded, &old_zones);
            let got = sharded.update_topology(&old_zones, &new_zones, &[moved], &alive);
            assert_eq!(got, want, "stats diverged at {shards} shards");
            for i in 0..new_zones.len() {
                let node = NodeId::new(i as u32);
                assert_eq!(
                    sharded.table(node),
                    sequential.table(node),
                    "{shards} shards: node {node}"
                );
            }
        }
    }

    #[test]
    fn sharded_kill_and_revive_match_full_rebuild() {
        let z = zones(6, 6);
        let mut dbf = DbfEngine::new(&z, 2).with_shards(4);
        rebuild_all(&mut dbf, &z);
        let mut alive = vec![true; z.len()];
        for flip in [false, true] {
            alive[14] = flip;
            dbf.invalidate_zone(&z, &[NodeId::new(14)], &alive);
            let mut reference = DbfEngine::new(&z, 2);
            reference.rebuild_sharded(&z, &alive);
            for i in 0..z.len() {
                let node = NodeId::new(i as u32);
                assert_eq!(dbf.table(node), reference.table(node), "up={flip} {node}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "shards must be at least 1")]
    fn zero_shards_panics() {
        let z = zones(3, 3);
        let _ = DbfEngine::new(&z, 2).with_shards(0);
    }

    #[test]
    fn sharded_full_rebuild_matches_sequential_tables_and_stats() {
        // The full rebuild must agree with the one-range rebuild on every
        // table AND every stats field, dead nodes included, for shard
        // counts below, at, and above the busy-range count.
        let z = zones(6, 6);
        let mut alive = vec![true; z.len()];
        alive[14] = false;
        alive[15] = false;
        let mut sequential = DbfEngine::new(&z, 2);
        let want = sequential.rebuild_sharded(&z, &alive);
        for shards in [1usize, 2, 8, 64] {
            let mut sharded = DbfEngine::new(&z, 2).with_shards(shards);
            let got = sharded.rebuild_sharded(&z, &alive);
            assert_eq!(got, want, "stats diverged at {shards} shards");
            for i in 0..z.len() {
                let node = NodeId::new(i as u32);
                assert_eq!(
                    sharded.table(node),
                    sequential.table(node),
                    "{shards} shards: node {node}"
                );
            }
        }
    }

    #[test]
    fn sharded_paths_at_paper_scale_match_sequential() {
        // At the paper's n = 169 the snapshot weight clears the
        // pool-dispatch threshold, so this differential exercises the
        // sender-sharded snapshot scatter on both the full rebuild and a
        // multi-mover delta re-convergence — not just the receiver-sharded
        // relaxation the small-grid tests reach.
        let mut topo = placement::grid(13, 13, 5.0).unwrap();
        let radio = RadioProfile::mica2();
        let old_zones = ZoneTable::build(&topo, &radio, 20.0);
        let movers: Vec<NodeId> = [15u32, 60, 84, 120, 150]
            .iter()
            .map(|&i| NodeId::new(i))
            .collect();
        for (j, &m) in movers.iter().enumerate() {
            let p = topo.position(m);
            topo.move_node(
                m,
                spms_net::Point::new(p.x + 7.5, (j as f64).mul_add(2.5, p.y)),
            );
        }
        let new_zones = ZoneTable::build(&topo, &radio, 20.0);
        let alive = vec![true; new_zones.len()];

        let mut sequential = DbfEngine::new(&old_zones, 2);
        let full_want = sequential.rebuild_sharded(&old_zones, &alive);
        let delta_want = sequential.update_topology(&old_zones, &new_zones, &movers, &alive);
        assert!(
            delta_want.entries_sent > 1024,
            "the delta must be heavy enough to exercise the sharded snapshot \
             (sent {})",
            delta_want.entries_sent
        );

        for shards in [2usize, 8] {
            let mut sharded = DbfEngine::new(&old_zones, 2).with_shards(shards);
            let full_got = sharded.rebuild_sharded(&old_zones, &alive);
            assert_eq!(full_got, full_want, "full stats diverged at {shards}");
            let delta_got = sharded.update_topology(&old_zones, &new_zones, &movers, &alive);
            assert_eq!(delta_got, delta_want, "delta stats diverged at {shards}");
            assert!(
                sharded.pool_started(),
                "{shards} shards: a paper-scale run must engage the worker pool"
            );
            for i in 0..new_zones.len() {
                let node = NodeId::new(i as u32);
                assert_eq!(
                    sharded.table(node),
                    sequential.table(node),
                    "{shards} shards: node {node}"
                );
            }
        }
    }

    #[test]
    fn rebuild_sharded_without_shards_is_the_sequential_rebuild() {
        // A default engine is one range: even a paper-scale rebuild runs
        // inline on the calling thread, and lands on the many-range
        // engine's tables and stats.
        let z = zones(13, 13);
        let alive = vec![true; z.len()];
        let mut a = DbfEngine::new(&z, 2);
        assert_eq!(a.shards(), 1);
        let got = a.rebuild_sharded(&z, &alive);
        assert!(!a.pool_started(), "one range must never start the pool");
        let mut b = DbfEngine::new(&z, 2).with_shards(4);
        let want = b.rebuild_sharded(&z, &alive);
        assert!(b.pool_started());
        assert_eq!(got, want);
        for i in 0..z.len() {
            let node = NodeId::new(i as u32);
            assert_eq!(a.table(node), b.table(node), "node {node}");
        }
    }

    #[test]
    fn rebuild_sharded_resets_stale_state_first() {
        // Rebuilding over a perturbed engine (a move and a failure it has
        // re-converged on) starts from scratch: the result only depends
        // on the inputs.
        let mut topo = placement::grid(5, 5, 5.0).unwrap();
        let radio = RadioProfile::mica2();
        let z = ZoneTable::build(&topo, &radio, 20.0);
        let mut dbf = DbfEngine::new(&z, 2).with_shards(4);
        rebuild_all(&mut dbf, &z);
        topo.move_node(NodeId::new(7), spms_net::Point::new(19.0, 17.0));
        let moved = ZoneTable::build(&topo, &radio, 20.0);
        let mut alive = vec![true; z.len()];
        alive[12] = false;
        dbf.update_topology(&z, &moved, &[NodeId::new(7), NodeId::new(12)], &alive);
        let got = rebuild_all(&mut dbf, &z);
        let mut reference = DbfEngine::new(&z, 2);
        let want = rebuild_all(&mut reference, &z);
        assert_eq!(got, want);
        for i in 0..z.len() {
            let node = NodeId::new(i as u32);
            assert_eq!(dbf.table(node), reference.table(node), "node {node}");
        }
    }

    #[test]
    fn delta_costs_less_than_full_rebuild() {
        let mut topo = placement::grid(7, 7, 5.0).unwrap();
        let radio = RadioProfile::mica2();
        let old_zones = ZoneTable::build(&topo, &radio, 20.0);
        let mut dbf = DbfEngine::new(&old_zones, 2);
        rebuild_all(&mut dbf, &old_zones);

        let moved = NodeId::new(3);
        topo.move_node(moved, spms_net::Point::new(30.0, 30.0));
        let new_zones = ZoneTable::build(&topo, &radio, 20.0);
        let alive = vec![true; new_zones.len()];
        let delta = dbf.update_topology(&old_zones, &new_zones, &[moved], &alive);

        let mut full = DbfEngine::new(&new_zones, 2);
        let full_stats = full.rebuild_sharded(&new_zones, &alive);
        assert!(
            delta.entries_sent < full_stats.entries_sent / 2,
            "delta {} vs full {}",
            delta.entries_sent,
            full_stats.entries_sent
        );
        assert!(delta.bytes_total < full_stats.bytes_total);
    }

    #[test]
    fn pooled_scatter_is_byte_identical_to_sequential_scatter() {
        // The differential test promised by the `scatter_inboxes_pooled`
        // doc comment: the receiver-driven pooled scatter leans on zone
        // links being symmetric and stored in ascending neighbor id, and
        // this pins the resulting CSR — prefix, message order, weights
        // and planner loads — against the sender-driven sequential
        // scatter, with silent senders and dead receivers in the mix.
        let z = zones(13, 13);
        let n = z.len();
        let mut alive = vec![true; n];
        for i in [7usize, 40, 41, 100] {
            alive[i] = false;
        }
        // A synthetic round snapshot: the scatter only reads the
        // `(sender, start, end)` spans, never the entry payloads.
        // Roughly two thirds of the alive nodes broadcast, with vector
        // lengths 0..5 (zero-length broadcasts still occupy inbox slots).
        let mut snap_from: Vec<(NodeId, u32, u32)> = Vec::new();
        let mut acc = 0u32;
        for (i, &up) in alive.iter().enumerate() {
            if !up || i % 3 == 0 {
                continue;
            }
            let len = (i % 5) as u32;
            snap_from.push((NodeId::new(i as u32), acc, acc + len));
            acc += len;
        }

        let (mut start_a, mut msg_a, mut w_a, mut load_a, mut fill) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        scatter_inboxes(
            &z,
            &alive,
            &snap_from,
            &mut start_a,
            &mut msg_a,
            &mut w_a,
            &mut load_a,
            &mut fill,
        );
        let total = start_a[n] as usize;
        assert!(total > 0, "the differential needs a non-trivial round");

        let pool = WorkerPool::new(3);
        let (mut start_b, mut msg_b, mut w_b, mut load_b, mut msg_of) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for ranges in [1usize, 2, 3, 8, 64] {
            // Reusing the same output buffers across iterations also
            // exercises the grow-only steady-state reuse path.
            scatter_inboxes_pooled(
                &pool,
                &z,
                &alive,
                &snap_from,
                &mut start_b,
                &mut msg_b,
                &mut w_b,
                &mut load_b,
                &mut msg_of,
                ranges,
            );
            assert_eq!(start_b, start_a, "{ranges} ranges: CSR prefix");
            assert_eq!(
                &msg_b[..total],
                &msg_a[..],
                "{ranges} ranges: delivery order"
            );
            assert_eq!(&w_b[..total], &w_a[..], "{ranges} ranges: link weights");
            assert_eq!(load_b, load_a, "{ranges} ranges: planner load");
        }
    }

    #[test]
    fn sub_threshold_rounds_stay_inline_and_never_start_the_pool() {
        // Satellite for the SHARD_MIN_LOAD recalibration: on a 5-node
        // line every delta and full-rebuild round is far below the
        // threshold, so even a widely-sharded engine must keep the whole
        // exchange on the calling thread — no worker threads spawned —
        // and still land byte-identical to the sequential engine.
        let mut topo = placement::grid(5, 1, 5.0).unwrap();
        let radio = RadioProfile::mica2();
        let old_zones = ZoneTable::build(&topo, &radio, 20.0);
        let moved = NodeId::new(2);
        topo.move_node(moved, spms_net::Point::new(11.0, 4.0));
        let new_zones = ZoneTable::build(&topo, &radio, 20.0);
        let alive = vec![true; new_zones.len()];

        let mut sequential = DbfEngine::new(&old_zones, 2);
        let full_want = sequential.rebuild_sharded(&old_zones, &alive);
        let delta_want = sequential.update_topology(&old_zones, &new_zones, &[moved], &alive);

        let mut sharded = DbfEngine::new(&old_zones, 2).with_shards(8);
        let full_got = sharded.rebuild_sharded(&old_zones, &alive);
        assert_eq!(full_got, full_want);
        let delta_got = sharded.update_topology(&old_zones, &new_zones, &[moved], &alive);
        assert_eq!(delta_got, delta_want);
        assert!(
            !sharded.pool_started(),
            "sub-threshold rounds must not spin up the worker pool"
        );
        for i in 0..new_zones.len() {
            let node = NodeId::new(i as u32);
            assert_eq!(sharded.table(node), sequential.table(node), "node {node}");
        }
    }

    #[test]
    fn pool_persists_across_epochs_and_clones_start_fresh() {
        // The pool is created lazily on the first heavy round, then
        // reused for every subsequent epoch (ping-pong re-convergence
        // below re-enters the delta loop many times on the same engine).
        // A cloned engine shares tables but never threads: it lazily
        // builds its own pool.
        let mut topo = placement::grid(13, 13, 5.0).unwrap();
        let radio = RadioProfile::mica2();
        let zones_a = ZoneTable::build(&topo, &radio, 20.0);
        let movers: Vec<NodeId> = [15u32, 60, 84].iter().map(|&i| NodeId::new(i)).collect();
        for &m in &movers {
            let p = topo.position(m);
            topo.move_node(m, spms_net::Point::new(p.x + 7.5, p.y + 2.5));
        }
        let zones_b = ZoneTable::build(&topo, &radio, 20.0);
        let alive = vec![true; zones_a.len()];

        let mut sequential = DbfEngine::new(&zones_a, 2);
        sequential.rebuild_sharded(&zones_a, &alive);

        let mut sharded = DbfEngine::new(&zones_a, 2).with_shards(4);
        sharded.rebuild_sharded(&zones_a, &alive);
        assert!(sharded.pool_started(), "a 169-node rebuild is pool work");

        // Ten ping-pong epochs on the same engine: same parked workers,
        // same fixpoints as the sequential replay at every step.
        let mut flips = [(&zones_a, &zones_b), (&zones_b, &zones_a)]
            .into_iter()
            .cycle();
        for epoch in 0..10 {
            let (from, to) = flips.next().unwrap();
            let want = sequential.update_topology(from, to, &movers, &alive);
            let got = sharded.update_topology(from, to, &movers, &alive);
            assert_eq!(got, want, "epoch {epoch}");
        }

        let clone = sharded.clone();
        assert!(
            !clone.pool_started(),
            "a cloned engine must not share or inherit worker threads"
        );
        for i in 0..zones_a.len() {
            let node = NodeId::new(i as u32);
            assert_eq!(clone.table(node), sequential.table(node), "node {node}");
        }
        // The clone converges independently — spinning up its own pool —
        // while the original keeps working. Drop order between the two
        // pools is then arbitrary, which is the point.
        let mut clone = clone;
        let want = sequential.update_topology(&zones_a, &zones_b, &movers, &alive);
        let got_clone = clone.update_topology(&zones_a, &zones_b, &movers, &alive);
        let got_orig = sharded.update_topology(&zones_a, &zones_b, &movers, &alive);
        assert_eq!(got_clone, want);
        assert_eq!(got_orig, want);
        assert!(clone.pool_started());
    }

    #[test]
    fn engine_with_live_pool_is_send_and_sync() {
        // The workload sweeps move engines across threads; the pool
        // handle must not cost the engine its auto traits.
        fn check<T: Send + Sync>(_: &T) {}
        let z = zones(13, 13);
        let alive = vec![true; z.len()];
        let mut dbf = DbfEngine::new(&z, 2).with_shards(4);
        dbf.rebuild_sharded(&z, &alive);
        assert!(dbf.pool_started());
        check(&dbf);
    }
}
