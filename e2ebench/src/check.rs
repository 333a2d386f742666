//! Output checks behind the benchmark's failure count: invariants every
//! run must satisfy, and a digest of its simulated results.

use spms::RunMetrics;
use spms_kernel::stats::Tally;
use spms_phy::EnergyCategory;

/// Relative tolerance for energy conservation.
const ENERGY_EPS: f64 = 1e-9;

/// Checks the invariants of one run: no more deliveries than expected, and
/// per-node energy summing to the categorized total.
pub fn invariants(m: &RunMetrics) -> Result<(), String> {
    if m.deliveries > m.deliveries_expected {
        return Err(format!(
            "{} deliveries exceed the {} expected",
            m.deliveries, m.deliveries_expected
        ));
    }
    let per_node: f64 = m.per_node_energy_uj.iter().sum();
    let total = m.energy.total().value();
    if (per_node - total).abs() > ENERGY_EPS * total.abs().max(1.0) {
        return Err(format!(
            "per-node energy sums to {per_node} µJ, categorized total is {total} µJ"
        ));
    }
    Ok(())
}

/// FNV-1a over named fields, so a digest names what it covers and no
/// formatting (or a counter outside the list) can move it.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn field(&mut self, name: &str, value: u64) {
        self.bytes(name.as_bytes());
        self.bytes(&[0]);
        self.bytes(&value.to_le_bytes());
    }

    fn float(&mut self, name: &str, value: f64) {
        self.field(name, value.to_bits());
    }

    fn tally(&mut self, name: &str, t: &Tally) {
        self.field(&format!("{name}.count"), t.count());
        self.float(&format!("{name}.sum"), t.sum());
        self.float(&format!("{name}.min"), t.min().unwrap_or(0.0));
        self.float(&format!("{name}.max"), t.max().unwrap_or(0.0));
    }
}

/// Digest of a run's simulated results: deliveries, duplicates,
/// abandonments, the delay and MAC-wait tallies, the energy breakdown,
/// message counts, routing rounds/messages/bytes, events processed, the
/// finish time and per-node energy.
pub fn digest(m: &RunMetrics) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.field("deliveries", m.deliveries);
    h.field("duplicates", m.duplicates);
    h.field("abandonments", m.abandonments);
    h.tally("delay_ms", &m.delay_ms);
    h.tally("mac_queue_wait_ms", &m.mac_queue_wait_ms);
    for category in EnergyCategory::ALL {
        h.float(
            &format!("energy.{}", category.label()),
            m.energy.get(category).value(),
        );
    }
    h.field("messages.adv", m.messages.adv.value());
    h.field("messages.req", m.messages.req.value());
    h.field("messages.data", m.messages.data.value());
    h.field("messages.dropped", m.messages.dropped.value());
    h.field("routing.rounds", m.routing.rounds);
    h.field("routing.messages", m.routing.messages);
    h.field("routing.bytes", m.routing.bytes);
    h.field("events_processed", m.events_processed);
    h.field("finished_at_ns", m.finished_at.as_nanos());
    h.field("per_node_energy.len", m.per_node_energy_uj.len() as u64);
    for &e in &m.per_node_energy_uj {
        h.float("per_node_energy_uj", e);
    }
    h.0
}

/// Per-spec digests recorded with `--seed` values listed in
/// `recorded_digests.txt` (lines of `workload seed label digest`).
const RECORDED: &str = include_str!("../recorded_digests.txt");

/// The recorded digest of `label` in `workload` at `seed`, if one exists.
pub fn recorded(workload: &str, seed: u64, label: &str) -> Option<u64> {
    RECORDED
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(
            |line| match line.split_whitespace().collect::<Vec<_>>()[..] {
                [w, s, l, digest] if w == workload && s == seed.to_string() && l == label => {
                    u64::from_str_radix(digest.trim_start_matches("0x"), 16).ok()
                }
                _ => None,
            },
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms::{ProtocolKind, SimConfig, Simulation};
    use spms_kernel::SimTime;
    use spms_net::{placement, NodeId};

    fn small_run() -> RunMetrics {
        let plan =
            spms_workloads::traffic::single_source(NodeId::new(12), 2, SimTime::from_millis(50))
                .unwrap();
        let topo = placement::grid(5, 5, 5.0).unwrap();
        Simulation::run_with(SimConfig::paper_defaults(ProtocolKind::Spms, 4), topo, plan).unwrap()
    }

    #[test]
    fn a_clean_run_passes_the_invariants() {
        assert_eq!(invariants(&small_run()), Ok(()));
    }

    #[test]
    fn broken_invariants_are_named() {
        let mut m = small_run();
        m.deliveries = m.deliveries_expected + 1;
        assert!(invariants(&m).unwrap_err().contains("exceed"));
        let mut m = small_run();
        m.per_node_energy_uj[0] += 1.0;
        assert!(invariants(&m).unwrap_err().contains("per-node energy"));
    }

    #[test]
    fn digest_repeats_and_sees_simulated_results() {
        let a = small_run();
        assert_eq!(digest(&a), digest(&small_run()));
        let mut b = a.clone();
        b.events_processed += 1;
        assert_ne!(digest(&a), digest(&b));
        let mut c = a.clone();
        c.per_node_energy_uj[3] *= 1.0 + f64::EPSILON;
        assert_ne!(digest(&a), digest(&c));
        // Counters outside the named fields do not move it.
        let mut d = a.clone();
        d.routing.batch_windows += 1;
        assert_eq!(digest(&a), digest(&d));
    }

    #[test]
    fn recorded_digests_cover_every_workload_at_the_default_seed() {
        assert!(recorded("fig12-paper", 1, "SPMS-r5").is_some());
        assert!(recorded("mobility-10k", 1, "SPMS-n10000").is_some());
        assert!(recorded("flows-dense", 1, "FLOOD").is_some());
        assert_eq!(recorded("fig12-paper", u64::MAX, "SPMS-r5"), None);
    }
}
