//! The benchmark's workloads. Each one turns the benchmark seed into the
//! specs the simulator runs: topology, traffic plan and configuration. The
//! simulator sees only those specs.

use spms::{ProtocolKind, RoutingMode, SimConfig};
use spms_kernel::SimTime;
use spms_net::{placement, MobilityConfig, NodeId};
use spms_workloads::experiment::{RunSpec, Scale};
use spms_workloads::{figures, traffic};

/// Grid spacing of every workload (m).
const SPACING_M: f64 = 5.0;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Figure 12 sweep at full scale: 169 nodes, radii 5–30 m,
    /// SPMS (distributed incremental DBF) and SPIN, all-to-all traffic,
    /// 5 % movers per epoch.
    Fig12Paper,
    /// One 10,000-node SPMS run under mobility: routing and zone
    /// maintenance dominate.
    Mobility10k,
    /// A static, tie-dense many-flow run under SPMS (oracle routing), SPIN
    /// and flooding: the event kernel, MAC and protocol handlers dominate.
    FlowsDense,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Fig12Paper,
        Workload::Mobility10k,
        Workload::FlowsDense,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig12Paper => "fig12-paper",
            Workload::Mobility10k => "mobility-10k",
            Workload::FlowsDense => "flows-dense",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Hardware threads the workload keeps busy, and so the threads its
    /// runs calibrate (see `calib`): `mobility-10k` spends most of its run
    /// in DBF deltas on the worker pool, which sizes itself to the host;
    /// the others run on the calling thread all but a few percent of the
    /// time.
    pub fn threads(self) -> usize {
        match self {
            Workload::Mobility10k => spms_kernel::host_parallelism(),
            Workload::Fig12Paper | Workload::FlowsDense => 1,
        }
    }

    /// The workload's specs at full size.
    pub fn specs(self, seed: u64) -> Vec<RunSpec> {
        match self {
            Workload::Fig12Paper => fig12_specs(&Scale::paper(), seed),
            Workload::Mobility10k => mobility_specs(100, seed),
            Workload::FlowsDense => flows_specs(11, seed),
        }
    }
}

/// The specs `figures::fig12` builds at `scale`: for SPMS then SPIN, one
/// run per radius on a square grid, all-to-all traffic, with the figure's
/// mobility. SPMS runs distributed, incremental DBF.
pub fn fig12_specs(scale: &Scale, seed: u64) -> Vec<RunSpec> {
    let n = scale.default_nodes;
    let topology =
        placement::square_grid(n, scale.spacing_m).expect("scale has square node counts");
    let mut specs = Vec::new();
    for protocol in [ProtocolKind::Spms, ProtocolKind::Spin] {
        for &r in &scale.radii_m {
            let mut config = SimConfig::paper_defaults(protocol, seed ^ ((r as u64) << 8));
            config.zone_radius_m = r;
            config.mobility = Some(figures::fig12_mobility(scale));
            config.horizon = scale.horizon_for(n);
            if protocol == ProtocolKind::Spms {
                config.routing_mode = RoutingMode::Distributed;
                config.incremental_routing = true;
            }
            let plan =
                traffic::all_to_all(n, scale.packets_per_node, scale.mean_gap, seed ^ 0xBEEF)
                    .expect("valid all-to-all workload");
            specs.push(RunSpec {
                label: format!("{}-r{r}", protocol.label()),
                config,
                topology: topology.clone(),
                plan,
            });
        }
    }
    specs
}

/// One SPMS run on a `side × side` grid with distributed incremental DBF:
/// 5 % movers every 10 s, six items from the centre node 20 s apart, and a
/// 140 s horizon.
pub fn mobility_specs(side: usize, seed: u64) -> Vec<RunSpec> {
    let topology = placement::grid(side, side, SPACING_M).expect("valid grid");
    let centre = NodeId::new(((side / 2) * side + side / 2) as u32);
    let mut config = SimConfig::paper_defaults(ProtocolKind::Spms, seed);
    config.routing_mode = RoutingMode::Distributed;
    config.incremental_routing = true;
    config.mobility =
        Some(MobilityConfig::new(SimTime::from_secs(10), 0.05).expect("valid mobility"));
    config.horizon = SimTime::from_secs(140);
    let plan = traffic::single_source(centre, 6, SimTime::from_secs(20)).expect("valid plan");
    vec![RunSpec {
        label: format!("SPMS-n{}", side * side),
        config,
        topology,
        plan,
    }]
}

/// A static `side × side` grid with one Poisson flow per node (3 items
/// each, 100 µs mean gap), run under SPMS with oracle routing, SPIN and
/// flooding.
pub fn flows_specs(side: usize, seed: u64) -> Vec<RunSpec> {
    let n = side * side;
    let topology = placement::grid(side, side, SPACING_M).expect("valid grid");
    let plan = traffic::many_flows(n, 3, SimTime::from_micros(100), seed ^ 0xF105)
        .expect("valid many-flow workload");
    [
        ProtocolKind::Spms,
        ProtocolKind::Spin,
        ProtocolKind::Flooding,
    ]
    .into_iter()
    .map(|protocol| RunSpec {
        label: protocol.label().to_string(),
        config: SimConfig::paper_defaults(protocol, seed),
        topology: topology.clone(),
        plan: plan.clone(),
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("fig12"), None);
    }

    #[test]
    fn fig12_builds_both_protocols_over_every_radius() {
        let scale = Scale::smoke();
        let specs = fig12_specs(&scale, 3);
        assert_eq!(specs.len(), 2 * scale.radii_m.len());
        for (i, spec) in specs.iter().enumerate() {
            let spms = i < scale.radii_m.len();
            let c = &spec.config;
            assert_eq!(c.zone_radius_m, scale.radii_m[i % scale.radii_m.len()]);
            assert_eq!(c.mobility, Some(figures::fig12_mobility(&scale)));
            assert_eq!(c.horizon, scale.horizon_for(scale.default_nodes));
            assert_eq!(spec.topology.len(), scale.default_nodes);
            assert_eq!(
                spec.plan.len(),
                scale.default_nodes * scale.packets_per_node as usize
            );
            if spms {
                assert_eq!(c.protocol, ProtocolKind::Spms);
                assert_eq!(c.routing_mode, RoutingMode::Distributed);
                assert!(c.incremental_routing);
            } else {
                assert_eq!(c.protocol, ProtocolKind::Spin);
            }
        }
    }

    #[test]
    fn fig12_specs_reproduce_the_figure() {
        // Running the generated specs must give the very points
        // `figures::fig12` plots, so the workload is that figure's sweep.
        let scale = Scale::smoke();
        let figure = figures::fig12(&scale, 7);
        let specs = fig12_specs(&scale, 7);
        let energy: Vec<f64> = specs
            .into_iter()
            .map(|s| {
                spms::Simulation::run_with(s.config, s.topology, s.plan)
                    .expect("spec runs")
                    .energy_per_packet_uj()
            })
            .collect();
        let (spms, spin) = energy.split_at(scale.radii_m.len());
        let ys = |name: &str| -> Vec<f64> {
            let series = figure.series_named(name).expect("series present");
            series.points.iter().map(|&(_, y)| y).collect()
        };
        assert_eq!(spms, ys("SPMS").as_slice());
        assert_eq!(spin, ys("SPIN").as_slice());
    }

    #[test]
    fn mobility_is_one_distributed_spms_run_from_the_centre() {
        let specs = mobility_specs(10, 3);
        assert_eq!(specs.len(), 1);
        let spec = &specs[0];
        let c = &spec.config;
        assert_eq!(spec.topology.len(), 100);
        assert_eq!(c.protocol, ProtocolKind::Spms);
        assert_eq!(c.routing_mode, RoutingMode::Distributed);
        assert!(c.incremental_routing);
        assert_eq!(
            c.mobility,
            Some(MobilityConfig::new(SimTime::from_secs(10), 0.05).unwrap())
        );
        assert_eq!(c.horizon, SimTime::from_secs(140));
        assert_eq!(spec.plan.len(), 6);
        assert!(spec
            .plan
            .generations
            .iter()
            .all(|g| g.source == NodeId::new(55)));
    }

    #[test]
    fn flows_run_three_protocols_statically_on_one_plan() {
        let specs = flows_specs(5, 3);
        let protocols: Vec<ProtocolKind> = specs.iter().map(|s| s.config.protocol).collect();
        assert_eq!(
            protocols,
            [
                ProtocolKind::Spms,
                ProtocolKind::Spin,
                ProtocolKind::Flooding
            ]
        );
        for spec in &specs {
            assert_eq!(spec.topology.len(), 25);
            assert_eq!(spec.plan.len(), 25 * 3);
            assert_eq!(spec.plan, specs[0].plan);
            assert_eq!(spec.config.routing_mode, RoutingMode::Oracle);
            assert!(spec.config.mobility.is_none());
        }
    }

    #[test]
    fn the_seed_alone_decides_the_inputs() {
        let a = Workload::FlowsDense.specs(11);
        let b = Workload::FlowsDense.specs(11);
        let c = Workload::FlowsDense.specs(12);
        assert_eq!(a[0].plan, b[0].plan);
        assert_ne!(a[0].plan, c[0].plan);
    }
}
