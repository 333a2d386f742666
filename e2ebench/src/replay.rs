//! The traced run's replay of the engine's zone and routing maintenance.
//!
//! The engine calls these layers internally, so the benchmark repeats the
//! same public calls in the same order on its own copy of the spec and
//! times them: the zone build, the routing initialization, then per
//! mobility epoch the move, the in-place zone patch and the DBF delta. The
//! replay's routing and zone counters must equal the engine's
//! [`RoutingCost`], or the timings would describe different work.

use std::hint::black_box;
use std::time::Duration;

use spms::{ProtocolKind, RoutingCost, RoutingMode, SimConfig};
use spms_kernel::{SimRng, SimTime};
use spms_net::{MobilityProcess, NodeId, SpatialGrid, Topology, ZoneTable};
use spms_routing::{oracle_tables, DbfEngine, DbfStats};

use crate::host::{live_threads_cpu_ns, ThreadGuard};
use crate::trace::{SpanId, Tracer};

/// The replay's routing and zone work counts, comparable with the
/// engine's [`RoutingCost`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// DBF synchronous rounds.
    pub rounds: u64,
    /// DBF vector broadcasts.
    pub messages: u64,
    /// DBF bytes on air.
    pub bytes: u64,
    /// Mobility epochs that patched the zone table.
    pub zone_patches: u64,
    /// Zone rows those patches rebuilt.
    pub zone_rows_patched: u64,
}

impl Totals {
    /// Adds another replay's totals.
    pub fn add(&mut self, other: &Totals) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.zone_patches += other.zone_patches;
        self.zone_rows_patched += other.zone_rows_patched;
    }

    fn add_dbf(&mut self, stats: &DbfStats) {
        self.rounds += u64::from(stats.rounds);
        self.messages += stats.messages;
        self.bytes += stats.bytes_total;
    }
}

/// What one spec's replay did and how long each layer took.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// Work counts, checked against the engine.
    pub totals: Totals,
    /// `SpatialGrid::for_radius` + `ZoneTable::build_indexed`.
    pub zone_build: Duration,
    /// `DbfEngine::new` + `rebuild_sharded`, or `oracle_tables`.
    pub init: Duration,
    /// `MobilityProcess::next_epoch` + `apply_indexed`.
    pub moves: Duration,
    /// `ZoneTable::apply_moves`.
    pub patch: Duration,
    /// `DbfEngine::apply_zone_delta`.
    pub delta: Duration,
    /// Delta calls made.
    pub delta_calls: u64,
    /// DBF messages sent by those delta calls.
    pub delta_messages: u64,
    /// CPU ns all threads spent inside delta calls.
    pub delta_cpu_ns: u64,
    /// Whether the routing engine started its worker pool.
    pub pool_started: bool,
}

/// Whether the engine builds routing tables for this protocol.
fn routed(config: &SimConfig) -> bool {
    matches!(config.protocol, ProtocolKind::Spms | ProtocolKind::SpmsIz)
}

/// Why a spec's maintenance cannot be replayed: the replay follows the
/// engine only for all-alive runs whose sole topology change is mobility,
/// patched in place and re-converged once per epoch.
fn unsupported(config: &SimConfig) -> Option<&'static str> {
    if config.failures.is_some() || config.battery_capacity_uj.is_some() {
        return Some("liveness changes");
    }
    if config.churn.is_some() || config.contact_plan.is_some() || config.adversary.is_some() {
        return Some("churn, contact plans or adversaries");
    }
    if config.mobility.is_some() {
        if !config.incremental_zones {
            return Some("full zone rebuilds");
        }
        if routed(config) {
            match config.routing_mode {
                RoutingMode::Oracle => return Some("oracle rebuilds on every epoch"),
                RoutingMode::Distributed
                    if !config.incremental_routing || config.batch_epochs != 1 =>
                {
                    return Some("non-incremental or batched re-convergence")
                }
                RoutingMode::Distributed => {}
            }
        }
    }
    None
}

/// Replays the zone and routing maintenance of a run that applied
/// `epochs` mobility epochs, starting from the spec's initial `topology`.
pub fn replay(
    config: &SimConfig,
    mut topology: Topology,
    epochs: u64,
    tracer: &mut Tracer,
    parent: SpanId,
    guard: &mut ThreadGuard,
) -> Result<Replay, String> {
    if let Some(what) = unsupported(config) {
        return Err(format!("the replay does not model {what}"));
    }
    let mut out = Replay::default();
    let radius = config.zone_radius_m;
    let alive = vec![true; topology.len()];

    let span = tracer.open("net.zone_build", Some(parent));
    let mut grid = SpatialGrid::for_radius(&topology, radius);
    let mut zones = ZoneTable::build_indexed(&topology, &config.radio, &grid, radius);
    out.zone_build = tracer.close(span);

    let mut dbf = None;
    if routed(config) {
        let span = tracer.open("routing.init", Some(parent));
        match config.routing_mode {
            RoutingMode::Oracle => {
                black_box(oracle_tables(&zones, config.k_routes));
            }
            RoutingMode::Distributed => {
                let shards = match config.dbf_shards {
                    0 => spms_kernel::host_parallelism(),
                    s => s,
                };
                let mut engine = DbfEngine::new(&zones, config.k_routes).with_shards(shards);
                let stats = engine.rebuild_sharded(&zones, &alive);
                out.totals.add_dbf(&stats);
                dbf = Some(engine);
            }
        }
        out.init = tracer.close(span);
        guard.sample();
    }

    if let Some(mobility) = config.mobility {
        let mut process = MobilityProcess::new(mobility, SimRng::new(config.seed).derive(2));
        let mut now = SimTime::ZERO;
        for _ in 0..epochs {
            let span = tracer.open("net.move", Some(parent));
            let epoch = process.next_epoch(now, &topology);
            MobilityProcess::apply_indexed(&epoch, &mut topology, &mut grid);
            out.moves += tracer.close(span);
            now = epoch.at;
            let moved: Vec<NodeId> = epoch.moves.iter().map(|&(node, _)| node).collect();

            let span = tracer.open("net.zone_patch", Some(parent));
            let delta = zones.apply_moves(&topology, &config.radio, &grid, &moved);
            out.patch += tracer.close(span);
            out.totals.zone_patches += 1;
            out.totals.zone_rows_patched += delta.rows_patched() as u64;

            if let Some(engine) = dbf.as_mut() {
                let cpu_before = live_threads_cpu_ns();
                let span = tracer.open("routing.delta", Some(parent));
                let stats = engine.apply_zone_delta(&zones, &delta, &[], &alive);
                out.delta += tracer.close(span);
                out.delta_cpu_ns += live_threads_cpu_ns().saturating_sub(cpu_before);
                out.delta_calls += 1;
                out.delta_messages += stats.messages;
                out.totals.add_dbf(&stats);
                guard.sample();
            }
        }
    }
    out.pool_started = dbf.as_ref().is_some_and(DbfEngine::pool_started);
    Ok(out)
}

/// Checks the replay's totals against the engine's counters for `label`.
pub fn check(label: &str, replay: &Totals, engine: &RoutingCost) -> Result<(), String> {
    let engine = Totals {
        rounds: engine.rounds,
        messages: engine.messages,
        bytes: engine.bytes,
        zone_patches: engine.zone_patches,
        zone_rows_patched: engine.zone_rows_patched,
    };
    if *replay == engine {
        Ok(())
    } else {
        Err(format!(
            "replay of {label} diverged from the engine: replay {replay:?}, engine {engine:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms::Simulation;

    fn replayed(spec: spms_workloads::experiment::RunSpec) -> (Replay, spms::RunMetrics) {
        let metrics =
            Simulation::run_with(spec.config.clone(), spec.topology.clone(), spec.plan).unwrap();
        let mut tracer = Tracer::new();
        let root = tracer.open("test", None);
        let mut guard = ThreadGuard::new();
        let replay = replay(
            &spec.config,
            spec.topology,
            metrics.mobility_epochs,
            &mut tracer,
            root,
            &mut guard,
        )
        .unwrap();
        (replay, metrics)
    }

    #[test]
    fn replay_matches_a_small_mobility_run() {
        let spec = crate::workloads::mobility_specs(12, 5).remove(0);
        let (replay, metrics) = replayed(spec);
        assert!(metrics.mobility_epochs > 0, "epochs must fire");
        assert!(replay.delta_calls > 0 && replay.totals.zone_rows_patched > 0);
        assert_eq!(check("SPMS-n144", &replay.totals, &metrics.routing), Ok(()));
    }

    #[test]
    fn replay_matches_fig12_smoke_specs_of_both_protocols() {
        let scale = spms_workloads::experiment::Scale::smoke();
        for spec in crate::workloads::fig12_specs(&scale, 2) {
            let label = spec.label.clone();
            let (replay, metrics) = replayed(spec);
            assert_eq!(check(&label, &replay.totals, &metrics.routing), Ok(()));
        }
    }

    #[test]
    fn a_tampered_counter_fails_the_check_by_name() {
        let spec = crate::workloads::mobility_specs(12, 5).remove(0);
        let (replay, mut metrics) = replayed(spec);
        metrics.routing.messages += 1;
        let err = check("SPMS-n144", &replay.totals, &metrics.routing).unwrap_err();
        assert!(err.contains("SPMS-n144"), "{err}");
        let mut metrics = metrics.clone();
        metrics.routing.messages -= 1;
        metrics.routing.zone_rows_patched += 1;
        assert!(check("x", &replay.totals, &metrics.routing).is_err());
    }

    #[test]
    fn unmodelled_configs_are_refused() {
        let mut spec = crate::workloads::mobility_specs(5, 1).remove(0);
        spec.config.batch_epochs = 2;
        let mut tracer = Tracer::new();
        let root = tracer.open("test", None);
        let err = replay(
            &spec.config,
            spec.topology,
            1,
            &mut tracer,
            root,
            &mut ThreadGuard::new(),
        )
        .unwrap_err();
        assert!(err.contains("batched"), "{err}");
    }
}
