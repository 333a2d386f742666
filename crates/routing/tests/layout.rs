//! Layout differential: the production routing table (parallel
//! cost/next-hop/hops planes plus a direct-map destination index) against
//! a reference model that keeps the original layout — flat `[RouteEntry]`
//! blocks of `k` slots per destination, found by binary search.
//!
//! 1. **Table-level lockstep replay** — random operation sequences
//!    (offers, ascending-cursor vector replays, single and batched
//!    destination removals, next-hop purges, clears) applied to the table
//!    and the model, asserting identical return values and identical
//!    tables after **every** operation. Offered costs are quantized onto
//!    a sub-epsilon lattice so sequences repeatedly land inside the
//!    non-transitive tie window of the epsilon comparator — the regime
//!    where the replace-arm and insert-arm rank rules disagree and a
//!    kernel shortcut would diverge.
//! 2. **Engine-level end-to-end differential** — a 169-node field driven
//!    through the DBF engine's full rebuild and a batched delta, at one
//!    range and four, against the reference rebuild run over model
//!    tables, asserting byte-identical [`DbfStats`] and identical tables.

mod common;

use std::cmp::Ordering;

use common::Table;
use proptest::prelude::*;
use spms_net::{placement, NodeId, Point, SpatialGrid, ZoneTable};
use spms_phy::RadioProfile;
use spms_routing::{DbfEngine, RouteEntry, RoutingTable};

/// The tie window of the production comparator.
const COST_EPS: f64 = 1e-12;

/// Strict route order: cost (with the epsilon tie window), then hops, then
/// neighbor id.
fn route_cmp(a: &RouteEntry, b: &RouteEntry) -> Ordering {
    if (a.cost - b.cost).abs() <= COST_EPS {
        a.hops.cmp(&b.hops).then_with(|| a.via.cmp(&b.via))
    } else {
        a.cost.partial_cmp(&b.cost).unwrap_or(Ordering::Equal)
    }
}

/// `true` when two entries are indistinguishable under the epsilon rule.
fn route_eq(a: &RouteEntry, b: &RouteEntry) -> bool {
    a.via == b.via && a.hops == b.hops && (a.cost - b.cost).abs() <= COST_EPS
}

/// Unoccupied model slot.
const VACANT: RouteEntry = RouteEntry {
    via: NodeId::new(u32::MAX),
    cost: f64::INFINITY,
    hops: u32::MAX,
};

/// The reference table: sorted destinations, a live length per
/// destination, and one flat `RouteEntry` arena with `k` slots per
/// destination.
#[derive(Clone, Debug)]
struct ModelTable {
    dests: Vec<NodeId>,
    lens: Vec<usize>,
    slots: Vec<RouteEntry>,
    k: usize,
}

/// The k-slot block merge: `block` is one destination's `k` slots, `len`
/// its live prefix. Returns `(changed, new_len)`. The replace arm counts
/// lesser entries over the whole live prefix (excluding the replaced
/// slot); the insert arm stops at the first non-lesser entry.
fn offer_block(block: &mut [RouteEntry], len: usize, entry: RouteEntry) -> (bool, usize) {
    let k = block.len();
    match block[..len].iter().position(|e| e.via == entry.via) {
        Some(i) => {
            let j = block[..len]
                .iter()
                .enumerate()
                .filter(|&(u, e)| u != i && route_cmp(e, &entry) == Ordering::Less)
                .count();
            if j == i && route_eq(&block[i], &entry) {
                return (false, len);
            }
            if j <= i {
                block[j..=i].rotate_right(1);
            } else {
                block[i..=j].rotate_left(1);
            }
            block[j] = entry;
            (true, len)
        }
        None => {
            let j = block[..len]
                .iter()
                .take_while(|e| route_cmp(e, &entry) == Ordering::Less)
                .count();
            if len < k {
                block[j..=len].rotate_right(1);
                block[j] = entry;
                (true, len + 1)
            } else if j == k {
                (false, len) // worse than every retained alternative
            } else {
                block[j..k].rotate_right(1);
                block[j] = entry;
                (true, len)
            }
        }
    }
}

impl ModelTable {
    fn offer(&mut self, dest: NodeId, entry: RouteEntry) -> bool {
        let p = match self.dests.binary_search(&dest) {
            Ok(p) => p,
            Err(p) => {
                self.dests.insert(p, dest);
                self.lens.insert(p, 0);
                let base = p * self.k;
                self.slots
                    .splice(base..base, std::iter::repeat_n(VACANT, self.k));
                p
            }
        };
        let base = p * self.k;
        let (changed, len) = offer_block(&mut self.slots[base..base + self.k], self.lens[p], entry);
        self.lens[p] = len;
        changed
    }

    fn remove_at(&mut self, p: usize) {
        self.dests.remove(p);
        self.lens.remove(p);
        self.slots.drain(p * self.k..(p + 1) * self.k);
    }

    fn remove_dest(&mut self, dest: NodeId) -> bool {
        match self.dests.binary_search(&dest) {
            Ok(p) => {
                self.remove_at(p);
                true
            }
            Err(_) => false,
        }
    }

    fn purge_via(&mut self, via: NodeId) -> bool {
        let mut changed = false;
        for p in (0..self.dests.len()).rev() {
            let base = p * self.k;
            let live = &mut self.slots[base..base + self.lens[p]];
            let kept: Vec<RouteEntry> = live.iter().copied().filter(|e| e.via != via).collect();
            if kept.len() == live.len() {
                continue;
            }
            changed = true;
            live[..kept.len()].copy_from_slice(&kept);
            self.lens[p] = kept.len();
            if kept.is_empty() {
                self.remove_at(p);
            }
        }
        changed
    }

    fn clear(&mut self) {
        self.dests.clear();
        self.lens.clear();
        self.slots.clear();
    }

    fn routes(&self, p: usize) -> &[RouteEntry] {
        &self.slots[p * self.k..p * self.k + self.lens[p]]
    }

    fn best(&self, dest: NodeId) -> Option<RouteEntry> {
        let p = self.dests.binary_search(&dest).ok()?;
        self.routes(p).first().copied()
    }

    fn total_entries(&self) -> usize {
        self.lens.iter().sum()
    }

    /// `true` when `table` holds exactly the model's routes.
    fn matches(&self, table: &RoutingTable) -> bool {
        table.k() == self.k
            && table.len() == self.dests.len()
            && table.iter().zip(0..).all(|((d, routes), p)| {
                d == self.dests[p] && routes.iter().eq(self.routes(p).iter().copied())
            })
    }
}

impl Table for ModelTable {
    fn with_k(k: usize) -> Self {
        assert!(k > 0, "k must be at least 1");
        ModelTable {
            dests: Vec::new(),
            lens: Vec::new(),
            slots: Vec::new(),
            k,
        }
    }

    fn offer(&mut self, dest: NodeId, entry: RouteEntry) -> bool {
        ModelTable::offer(self, dest, entry)
    }

    fn vector(&self) -> common::Vector {
        (0..self.dests.len())
            .map(|p| {
                let best = self.routes(p)[0];
                (self.dests[p], best.cost, best.hops)
            })
            .collect()
    }
}

/// One table operation, decoded from raw proptest draws.
#[derive(Clone, Debug)]
enum Op {
    /// A single route offer.
    Offer(u32, RouteEntry),
    /// A whole ascending distance vector replayed through one cursor.
    OfferVector(Vec<u32>, RouteEntry),
    RemoveDest(u32),
    RemoveDests(Vec<u32>),
    PurgeVia(u32),
    Clear,
}

/// Builds an entry whose cost sits on a half-epsilon lattice: offers
/// regularly collide inside the `COST_EPS` tie window, exercising the
/// non-transitive comparator edge the SoA kernel must replicate exactly.
fn entry(via: u8, cq: u8, eq: u8, hops: u8) -> RouteEntry {
    RouteEntry {
        via: NodeId::new(100 + u32::from(via % 6)),
        cost: f64::from(cq % 5) * 0.5 + f64::from(eq % 4) * 0.6e-12,
        hops: 1 + u32::from(hops % 4),
    }
}

/// Destination ids the ops draw from: few enough that one sequence offers
/// the same (destination, next hop) pair repeatedly, which exercises the
/// replace arm of the block merge.
const DESTS: u32 = 16;

/// A sorted, distinct destination set derived from one seed draw.
fn dest_set(d: u16, len: u8) -> Vec<u32> {
    let mut v: Vec<u32> = (0..u32::from(len % 7) + 1)
        .map(|i| (u32::from(d) + i * 5) % DESTS)
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

fn decode_ops(raw: &[(u8, u16, u8, u8, u8, u8)]) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, d, via, cq, eq, hops)| match kind % 8 {
            0..=2 => Op::Offer(u32::from(d) % DESTS, entry(via, cq, eq, hops)),
            3 | 4 => Op::OfferVector(dest_set(d, via), entry(via, cq, eq, hops)),
            5 => Op::RemoveDest(u32::from(d) % DESTS),
            6 => Op::RemoveDests(dest_set(d, via)),
            _ => {
                if cq % 4 == 0 {
                    Op::Clear
                } else {
                    Op::PurgeVia(100 + u32::from(via % 6))
                }
            }
        })
        .collect()
}

/// Applies one op and folds every boolean/count it returns into one word,
/// so the table's and the model's observable effects compare exactly.
fn apply(table: &mut RoutingTable, op: &Op) -> u64 {
    match op {
        Op::Offer(d, e) => u64::from(table.offer(NodeId::new(*d), *e)),
        Op::OfferVector(dests, e) => {
            let mut cursor = 0usize;
            let mut acc = 0u64;
            for &d in dests {
                acc =
                    (acc << 1) | u64::from(table.offer_ascending(NodeId::new(d), *e, &mut cursor));
            }
            acc
        }
        Op::RemoveDest(d) => u64::from(table.remove_dest(NodeId::new(*d))),
        Op::RemoveDests(ds) => {
            let ids: Vec<NodeId> = ds.iter().map(|&d| NodeId::new(d)).collect();
            table.remove_dests(&ids) as u64
        }
        Op::PurgeVia(v) => u64::from(table.purge_via(NodeId::new(*v))),
        Op::Clear => {
            table.clear();
            0
        }
    }
}

/// [`apply`] on the model: vectors are plain offers in order, batched
/// removals one removal per destination.
fn apply_model(model: &mut ModelTable, op: &Op) -> u64 {
    match op {
        Op::Offer(d, e) => u64::from(model.offer(NodeId::new(*d), *e)),
        Op::OfferVector(dests, e) => dests.iter().fold(0u64, |acc, &d| {
            (acc << 1) | u64::from(model.offer(NodeId::new(d), *e))
        }),
        Op::RemoveDest(d) => u64::from(model.remove_dest(NodeId::new(*d))),
        Op::RemoveDests(ds) => ds
            .iter()
            .filter(|&&d| model.remove_dest(NodeId::new(d)))
            .count() as u64,
        Op::PurgeVia(v) => u64::from(model.purge_via(NodeId::new(*v))),
        Op::Clear => {
            model.clear();
            0
        }
    }
}

proptest! {
    // Fixed seed + bounded case count keeps this suite deterministic in CI.
    #![proptest_config(ProptestConfig {
        cases: 24,
        rng_seed: 0x0000_1A70_2004,
        ..ProptestConfig::default()
    })]

    /// Identical operation sequences leave the table identical to the
    /// reference model after every single step, for every `k` (k = 2 takes
    /// the unrolled kernel, other k the generic plane kernel).
    #[test]
    fn lockstep_replay_is_bit_identical(
        k in 1usize..4,
        raw_ops in prop::collection::vec(
            (0u8..16, 0u16..256, 0u8..12, 0u8..10, 0u8..8, 0u8..8),
            1..40,
        ),
    ) {
        let ops = decode_ops(&raw_ops);
        let mut table = RoutingTable::new(k);
        let mut model = ModelTable::with_k(k);
        for (step, op) in ops.iter().enumerate() {
            let got = apply(&mut table, op);
            let want = apply_model(&mut model, op);
            prop_assert_eq!(
                got, want,
                "step {}: table and model disagreed on the result of {:?}", step, op
            );
            prop_assert!(
                model.matches(&table),
                "step {}: tables diverged after {:?}: {:?} vs {:?}", step, op, table, model
            );
            prop_assert_eq!(table.total_entries(), model.total_entries());
        }
        // The read API agrees destination by destination.
        for d in 0..64u32 {
            let d = NodeId::new(d);
            prop_assert_eq!(table.best(d), model.best(d));
        }
    }
}

#[test]
fn layouts_agree_on_epsilon_tie_windows() {
    // Costs spaced ~COST_EPS apart exercise the non-transitive epsilon
    // comparator, where the replace arm's full-count rank and the insert
    // arm's early-exit rank can legitimately differ — the plane kernel
    // must reproduce both arms exactly.
    let mut table = RoutingTable::new(2);
    let mut model = ModelTable::with_k(2);
    let d = NodeId::new(7);
    for round in 0..6u32 {
        for via in 1..=4u32 {
            let entry = RouteEntry {
                via: NodeId::new(via),
                cost: 1.0 + f64::from((round * 4 + via) % 5) * (COST_EPS * 0.6),
                hops: 1 + (via + round) % 3,
            };
            let a = table.offer(d, entry);
            let b = model.offer(d, entry);
            assert_eq!(a, b, "changed flags diverged on {entry:?}");
            assert!(model.matches(&table), "tables diverged after {entry:?}");
        }
    }
}

/// Asserts the engine's tables equal the model tables node for node.
fn assert_tables_match(engine: &DbfEngine, model: &[ModelTable], context: &str) {
    for (i, m) in model.iter().enumerate() {
        let node = NodeId::new(i as u32);
        assert!(
            m.matches(engine.table(node)),
            "{context}: node {node} diverged from the model"
        );
    }
}

/// The end-to-end differential at the paper's 169-node scale: the DBF
/// engine's full rebuild and a batched delta re-convergence, at one range
/// and four, land on the reference rebuild over model tables — identical
/// tables and byte-identical stats.
#[test]
fn dbf_loops_are_bit_identical_across_layouts_169_nodes() {
    let mut topo = placement::grid(13, 13, 5.0).unwrap();
    let n = topo.len();
    let radio = RadioProfile::mica2();
    let radius = 20.0;
    let mut grid = SpatialGrid::for_radius(&topo, radius);
    let mut zones = ZoneTable::build_indexed(&topo, &radio, &grid, radius);
    let mut alive = vec![true; n];
    let k = 2;

    let (model, want) = common::rebuild_with::<ModelTable>(&zones, k, &alive);
    let mut engines: Vec<DbfEngine> = [1, 4]
        .iter()
        .map(|&s| DbfEngine::new(&zones, k).with_shards(s))
        .collect();
    for engine in &mut engines {
        let context = format!("full rebuild, {} shards", engine.shards());
        assert_eq!(engine.rebuild_sharded(&zones, &alive), want, "{context}");
        assert_tables_match(engine, &model, &context);
    }

    // A batched topology window: three moves merged into one delta plus
    // two silent liveness flips.
    let mut delta = zones.apply_moves(&topo, &radio, &grid, &[]);
    for (i, node) in [5u32, 84, 130].into_iter().enumerate() {
        let node = NodeId::new(node);
        let field = topo.field();
        let to = Point::new(
            field.width * (0.2 + 0.3 * i as f64),
            field.height * (0.7 - 0.2 * i as f64),
        );
        topo.move_node(node, to);
        grid.move_node(node, topo.position(node));
        delta.merge(zones.apply_moves(&topo, &radio, &grid, &[node]));
    }
    alive[40] = false;
    alive[77] = false;
    let silent = vec![NodeId::new(40), NodeId::new(77)];

    let (model, _) = common::rebuild_with::<ModelTable>(&zones, k, &alive);
    let stats: Vec<_> = engines
        .iter_mut()
        .map(|e| e.apply_zone_delta(&zones, &delta, &silent, &alive))
        .collect();
    assert_eq!(
        stats[0], stats[1],
        "delta stats diverged across shard counts"
    );
    assert!(stats[0].messages > 0);
    for engine in &engines {
        assert_tables_match(
            engine,
            &model,
            &format!("delta, {} shards", engine.shards()),
        );
    }
}
