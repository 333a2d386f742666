//! Property-based tests over the whole stack: invariants that must hold
//! for arbitrary topologies, seeds and configurations.

use proptest::prelude::*;

use spms::{ProtocolKind, SimConfig, Simulation};
use spms_kernel::{SimRng, SimTime};
use spms_net::{dijkstra, placement, NodeId, ZoneTable};
use spms_phy::RadioProfile;
use spms_routing::{oracle_tables, DbfEngine};
use spms_workloads::traffic;

proptest! {
    // Fixed seed + bounded case count: tier-1 must explore the same cases on
    // every run, on every machine.
    #![proptest_config(ProptestConfig {
        cases: 24,
        rng_seed: 0x5EED_2004_D51F,
        ..ProptestConfig::default()
    })]

    /// Distributed Bellman-Ford converges to the Dijkstra-derived tables on
    /// arbitrary random topologies, radii and k.
    #[test]
    fn dbf_equals_oracle(
        seed in 0u64..1_000,
        n in 5usize..35,
        radius in 8.0f64..30.0,
        k in 1usize..4,
    ) {
        let mut rng = SimRng::new(seed);
        let topo = placement::uniform_random(n, 5.0, &mut rng).unwrap();
        let zones = ZoneTable::build(&topo, &RadioProfile::mica2(), radius);
        let mut dbf = DbfEngine::new(&zones, k);
        dbf.rebuild_sharded(&zones, &vec![true; zones.len()]);
        let oracle = oracle_tables(&zones, k);
        for (i, table) in oracle.iter().enumerate() {
            let node = NodeId::new(i as u32);
            let want: Vec<NodeId> = table.destinations().collect();
            let got: Vec<NodeId> = dbf.table(node).destinations().collect();
            prop_assert_eq!(&want, &got, "node {} destinations", node);
            for dest in want {
                let a = table.best(dest).unwrap();
                let b = dbf.table(node).best(dest).unwrap();
                prop_assert!((a.cost - b.cost).abs() < 1e-9,
                    "{}→{}: oracle {} vs dbf {}", node, dest, a.cost, b.cost);
                prop_assert_eq!(a.via, b.via);
            }
        }
    }

    /// The best route cost via the oracle is a lower bound for every stored
    /// alternative, and alternatives are sorted.
    #[test]
    fn route_alternatives_are_sorted(
        seed in 0u64..1_000,
        n in 5usize..30,
    ) {
        let mut rng = SimRng::new(seed);
        let topo = placement::uniform_random(n, 5.0, &mut rng).unwrap();
        let zones = ZoneTable::build(&topo, &RadioProfile::mica2(), 20.0);
        let tables = oracle_tables(&zones, 3);
        for (i, table) in tables.iter().enumerate() {
            let node = NodeId::new(i as u32);
            for dest in table.destinations() {
                let routes = table.routes_to(dest).to_vec();
                for pair in routes.windows(2) {
                    prop_assert!(pair[0].cost <= pair[1].cost + 1e-12,
                        "{}→{} unsorted", node, dest);
                }
                // And the best agrees with Dijkstra.
                let dist = dijkstra(&zones, dest);
                let want = dist[i].unwrap();
                prop_assert!((routes[0].cost - want.cost).abs() < 1e-9);
            }
        }
    }

    /// Full delivery on connected grids for every protocol, any seed.
    #[test]
    fn dissemination_is_complete_on_grids(
        seed in 0u64..1_000,
        side in 3usize..6,
        protocol_idx in 0usize..4,
    ) {
        let protocol = [ProtocolKind::Spms, ProtocolKind::Spin, ProtocolKind::Flooding,
            ProtocolKind::SpmsIz]
            [protocol_idx];
        let topo = placement::grid(side, side, 5.0).unwrap();
        let n = topo.len();
        let config = SimConfig::paper_defaults(protocol, seed);
        let plan = traffic::all_to_all(n, 1, SimTime::from_millis(300), seed).unwrap();
        let m = Simulation::run_with(config, topo, plan).unwrap();
        prop_assert_eq!(m.deliveries, m.deliveries_expected,
            "{} failed delivery", protocol.label());
    }

    /// Energy accounting is non-negative, categorized, and delay samples
    /// match delivery counts.
    #[test]
    fn metrics_invariants(
        seed in 0u64..1_000,
        radius in 8.0f64..26.0,
    ) {
        let topo = placement::grid(4, 4, 5.0).unwrap();
        let mut config = SimConfig::paper_defaults(ProtocolKind::Spms, seed);
        config.zone_radius_m = radius;
        let plan = traffic::all_to_all(16, 1, SimTime::from_millis(300), seed).unwrap();
        let m = Simulation::run_with(config, topo, plan).unwrap();
        prop_assert!(m.energy.total().value() >= 0.0);
        prop_assert!(m.energy.tx_total() <= m.energy.total());
        prop_assert_eq!(m.delay_ms.count(), m.deliveries);
        prop_assert!(m.deliveries <= m.deliveries_expected);
        if let Some(min) = m.delay_ms.min() {
            prop_assert!(min >= 0.0);
        }
    }

    /// SPMS-IZ delivers to an arbitrary far sink on arbitrary-length
    /// pipelines — wherever a relay chain exists at all — and never beats
    /// flooding on delivery while losing to it on energy.
    #[test]
    fn interzone_delivers_wherever_reachable(
        seed in 0u64..1_000,
        len in 6usize..30,
        sink_back in 0usize..4,
    ) {
        let sink = (len - 1 - sink_back.min(len - 2)) as u32;
        let topo = placement::grid(len, 1, 5.0).unwrap();
        let mut config = SimConfig::paper_defaults(ProtocolKind::SpmsIz, seed);
        config.horizon = SimTime::from_secs(120);
        let plan = traffic::pipeline(
            NodeId::new(0),
            &[NodeId::new(sink)],
            1,
            SimTime::ZERO,
        ).unwrap();
        let m = Simulation::run_with(config, topo, plan).unwrap();
        prop_assert_eq!(m.deliveries, 1, "sink n{} on a {}-node line", sink, len);
        prop_assert_eq!(m.delay_ms.count(), 1);
        prop_assert!(m.energy.total().value() > 0.0);
    }

    /// Inter-zone REQ legs are always zone-adjacent: every stored border
    /// path's consecutive waypoints can hear each other, for arbitrary
    /// random fields.
    #[test]
    fn border_paths_are_zone_adjacent(
        seed in 0u64..1_000,
        n in 8usize..30,
        radius in 10.0f64..25.0,
    ) {
        use spms_interzone::border_relays;
        let mut rng = SimRng::new(seed);
        let topo = placement::uniform_random(n, 5.0, &mut rng).unwrap();
        let zones = ZoneTable::build(&topo, &RadioProfile::mica2(), radius);
        // Border relays by construction are zone neighbors; chains built
        // from successive relays are therefore zone-adjacent.
        for node in topo.nodes() {
            for relay in border_relays(&zones, node) {
                prop_assert!(zones.in_zone(node, relay));
                prop_assert!(zones.in_zone(relay, node));
            }
        }
    }

    /// Determinism: the same seed reproduces the same run bit-for-bit, for
    /// any protocol and failure setting.
    #[test]
    fn runs_are_deterministic(
        seed in 0u64..1_000,
        protocol_idx in 0usize..4,
        with_failures in any::<bool>(),
    ) {
        let protocol = [ProtocolKind::Spms, ProtocolKind::Spin, ProtocolKind::Flooding,
            ProtocolKind::SpmsIz]
            [protocol_idx];
        let mk = || {
            let topo = placement::grid(4, 4, 5.0).unwrap();
            let mut config = SimConfig::paper_defaults(protocol, seed);
            if with_failures {
                config.failures = Some(spms_net::FailureConfig::paper_defaults());
            }
            let plan = traffic::all_to_all(16, 1, SimTime::from_millis(250), seed).unwrap();
            Simulation::run_with(config, topo, plan).unwrap()
        };
        prop_assert_eq!(mk(), mk());
    }

    /// The zone tables respect the triangle of definitions: every link is
    /// within the radius, at the cheapest covering level, symmetric.
    #[test]
    fn zone_invariants(
        seed in 0u64..1_000,
        n in 4usize..40,
        radius in 6.0f64..40.0,
    ) {
        let mut rng = SimRng::new(seed);
        let topo = placement::uniform_random(n, 5.0, &mut rng).unwrap();
        let radio = RadioProfile::mica2();
        let zones = ZoneTable::build(&topo, &radio, radius);
        for node in topo.nodes() {
            for link in zones.links(node) {
                prop_assert!(link.distance_m <= radius + 1e-9);
                prop_assert!(radio.range_m(link.level) >= link.distance_m);
                prop_assert!(zones.in_zone(link.neighbor, node));
                if let Some(cheaper) = radio.level(link.level.index() + 1) {
                    prop_assert!(radio.range_m(cheaper) < link.distance_m);
                }
            }
        }
    }
}
