//! The two kinds of run: untraced passes for the end-to-end metrics, and a
//! traced pass for the per-layer metrics.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use spms::{RunMetrics, Simulation};
use spms_kernel::stats::Tally;
use spms_workloads::experiment::RunSpec;

use crate::calib::Clock;
use crate::check;
use crate::host::{self, ThreadGuard};
use crate::replay;
use crate::trace::{SpanId, Tracer};
use crate::workloads::Workload;

/// Set-up-only repetitions made before the passes, at least.
const SETUP_REPS_MIN: usize = 4;
/// Keep repeating set-up until the repetitions total this long...
const SETUP_REPS_SECONDS: f64 = 0.5;
/// ...or this many were made.
const SETUP_REPS_MAX: usize = 200;
/// Set-up repetitions between two calibration slices total at least this
/// long.
const SETUP_GROUP_SECONDS: f64 = 0.25;

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Specs attempted, over every pass.
    pub attempted: u64,
    /// Specs that errored, panicked, broke an invariant or a digest check,
    /// or whose replay diverged from the engine.
    pub failed: u64,
    /// Whether the run's outputs are correct and the thread guard held.
    pub correct: bool,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// One spec's outcome: its metrics, or why it failed.
type Outcome = Result<RunMetrics, String>;

fn contained<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panicked".into())),
    }
}

/// One untraced pass: spec generation, then per spec `Simulation::new`
/// and `Simulation::run`, in sequence on this thread. Times are host
/// seconds; calibration slices run between specs, outside them.
struct Pass {
    wall_s: f64,
    setup_s: f64,
    cpu_s: f64,
    /// `Simulation::new` + `Simulation::run` time.
    sim_s: f64,
    /// Host seconds of the whole pass, slices included.
    elapsed_s: f64,
    outcomes: Vec<(String, Outcome)>,
}

/// Runs a pass. Each spec is one timed segment (the first also holds spec
/// generation), marked on `clock`.
fn untraced_pass(
    workload: Workload,
    seed: u64,
    guard: &mut ThreadGuard,
    clock: &mut Clock,
) -> Pass {
    let pass_start = Instant::now();
    let (mut wall, mut setup, mut cpu, mut sim) = (0.0, 0.0, 0.0, 0.0);
    let mut segment = Instant::now();
    let mut cpu_before = host::process_cpu_s();
    let specs = workload.specs(seed);
    let mut segment_setup = segment.elapsed();
    let mut outcomes = Vec::with_capacity(specs.len());
    for RunSpec {
        label,
        config,
        topology,
        plan,
    } in specs
    {
        let t = Instant::now();
        let built = contained(|| Simulation::new(config, topology, plan));
        let new_time = t.elapsed();
        segment_setup += new_time;
        guard.sample();
        let t = Instant::now();
        let outcome = built.and_then(|s| contained(|| Ok(s.run())));
        sim += (new_time + t.elapsed()).as_secs_f64();
        outcomes.push((label, outcome));

        let segment_s = segment.elapsed().as_secs_f64();
        wall += segment_s;
        cpu += host::process_cpu_s() - cpu_before;
        setup += segment_setup.as_secs_f64();
        clock.mark(segment_s, guard);
        segment = Instant::now();
        cpu_before = host::process_cpu_s();
        segment_setup = Duration::ZERO;
    }
    Pass {
        wall_s: wall,
        setup_s: setup,
        cpu_s: cpu,
        sim_s: sim,
        elapsed_s: pass_start.elapsed().as_secs_f64(),
        outcomes,
    }
}

/// Spec generation plus every `Simulation::new`, without running; host
/// seconds.
fn setup_only(workload: Workload, seed: u64, guard: &mut ThreadGuard) -> f64 {
    let start = Instant::now();
    let specs = workload.specs(seed);
    let mut setup = start.elapsed();
    for spec in specs {
        let t = Instant::now();
        let built = contained(|| Simulation::new(spec.config, spec.topology, spec.plan));
        setup += t.elapsed();
        guard.sample();
        drop(built);
    }
    setup.as_secs_f64()
}

/// Set-up-only repetitions in host seconds: at least
/// [`SETUP_REPS_MIN`], until they total [`SETUP_REPS_SECONDS`] or number
/// [`SETUP_REPS_MAX`]. Every group of repetitions totalling
/// [`SETUP_GROUP_SECONDS`] is one segment marked on `clock`.
fn setup_repetitions(
    workload: Workload,
    seed: u64,
    guard: &mut ThreadGuard,
    clock: &mut Clock,
) -> Vec<f64> {
    let mut setups: Vec<f64> = Vec::new();
    let mut group = 0.0;
    loop {
        let total: f64 = setups.iter().sum();
        let done = setups.len() >= SETUP_REPS_MIN
            && (total >= SETUP_REPS_SECONDS || setups.len() >= SETUP_REPS_MAX);
        if group > 0.0 && (done || group >= SETUP_GROUP_SECONDS) {
            clock.mark(group, guard);
            group = 0.0;
        }
        if done {
            return setups;
        }
        let s = setup_only(workload, seed, guard);
        group += s;
        setups.push(s);
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.is_empty() {
        0.0
    } else if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Checks every outcome of every pass: the spec ran, its invariants hold,
/// its digest is the same in every pass and equals the recorded one where
/// one exists. Returns the number of failed spec runs.
fn check_outcomes(
    workload: Workload,
    seed: u64,
    passes: &[&[(String, Outcome)]],
    notes: &mut Vec<String>,
) -> u64 {
    let mut failed = 0;
    let mut first: BTreeMap<&str, u64> = BTreeMap::new();
    for outcomes in passes {
        for (label, outcome) in outcomes.iter() {
            let verdict = outcome.as_ref().map_err(Clone::clone).and_then(|m| {
                check::invariants(m)?;
                let digest = check::digest(m);
                if let Some(&seen) = first.get(label.as_str()) {
                    if seen != digest {
                        return Err(format!(
                            "digest {digest:#018x} differs from {seen:#018x} in an earlier pass"
                        ));
                    }
                } else {
                    first.insert(label, digest);
                    notes.push(format!(
                        "digest {} {seed} {label} {digest:#018x}",
                        workload.name()
                    ));
                }
                match check::recorded(workload.name(), seed, label) {
                    Some(want) if want != digest => Err(format!(
                        "digest {digest:#018x} differs from the recorded {want:#018x}"
                    )),
                    _ => Ok(()),
                }
            });
            if let Err(e) = verdict {
                failed += 1;
                notes.push(format!("FAILED {label}: {e}"));
            }
        }
    }
    failed
}

fn fingerprint(guard: &ThreadGuard) -> String {
    format!(
        "host: nproc={} cpu=\"{}\" rustc=\"{}\" peak_threads={}",
        host::nproc(),
        host::cpu_model(),
        host::rustc_version(),
        guard.peak()
    )
}

/// The untraced run: set-up repetitions, then passes until the next one
/// would end past `seconds`, always at least one. Reports the mean pass
/// (total pass time over the passes made) and the median set-up, in
/// reference seconds (see [`crate::calib`]).
///
/// The mean, not the median: this host's speed drifts in regimes of tens
/// of seconds, and the mean averages every regime the run spans.
pub fn untraced(workload: Workload, seed: u64, seconds: f64) -> Report {
    let mut guard = ThreadGuard::new();
    let start = Instant::now();
    let mut clock = Clock::start(workload.threads(), &mut guard);
    let mut setups = setup_repetitions(workload, seed, &mut guard, &mut clock);
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        passes.push(untraced_pass(workload, seed, &mut guard, &mut clock));
        let longest = passes.iter().map(|p| p.elapsed_s).fold(0.0, f64::max);
        if start.elapsed().as_secs_f64() + longest > seconds {
            break;
        }
    }
    let factor = clock.factor();

    let mut report = Report::default();
    for (i, p) in passes.iter().enumerate() {
        let events: u64 = p
            .outcomes
            .iter()
            .filter_map(|(_, o)| o.as_ref().ok())
            .map(|m| m.events_processed)
            .sum();
        report.notes.push(format!(
            "pass {}: host wall {:.3} s, setup {:.4} s, cpu {:.2} s, {events} events",
            i + 1,
            p.wall_s,
            p.setup_s,
            p.cpu_s
        ));
    }
    setups.extend(passes.iter().map(|p| p.setup_s));
    let outcomes: Vec<&[(String, Outcome)]> =
        passes.iter().map(|p| p.outcomes.as_slice()).collect();
    report.failed = check_outcomes(workload, seed, &outcomes, &mut report.notes);
    report.attempted = passes.iter().map(|p| p.outcomes.len() as u64).sum();

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let cpus: Vec<f64> = passes.iter().map(|p| p.cpu_s).collect();
    report.values.insert("wall_s", mean(&walls) * factor);
    report.values.insert("setup_s", median(&setups) * factor);
    report.values.insert("cpu_s", mean(&cpus) * factor);
    report
        .values
        .insert("peak_rss_mb", host::status_mib("VmHWM"));
    report
        .notes
        .push(format!("calibration points: {}", clock.describe()));
    let slices = clock.slices();
    report.notes.push(format!(
        "{} passes, {} set-up samples; {} calibration slices, host ms median {:.1} \
         (min {:.1}, max {:.1}), reference s per host s {:.4}; failed_share {}",
        passes.len(),
        setups.len(),
        slices.len(),
        median(slices) * 1e3,
        slices.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
        slices.iter().copied().fold(0.0, f64::max) * 1e3,
        factor,
        report.failed as f64 / report.attempted as f64
    ));
    finish(report, &guard)
}

fn finish(mut report: Report, guard: &ThreadGuard) -> Report {
    report.notes.insert(0, fingerprint(guard));
    let threads_ok = match guard.verdict() {
        Ok(()) => true,
        Err(e) => {
            report.notes.push(format!("FAILED thread guard: {e}"));
            false
        }
    };
    report.correct = threads_ok && report.failed == 0;
    report
}

/// Per-layer sums over the traced pass.
#[derive(Default)]
struct Layers {
    new_s: f64,
    run_s: f64,
    rss_setup_mb: f64,
    events: u64,
    frames: u64,
    dropped: u64,
    queue_wait: Tally,
    deliveries: u64,
    duplicates: u64,
    zone_build_s: f64,
    move_s: f64,
    zone_patch_s: f64,
    init_s: f64,
    delta_s: f64,
    delta_calls: u64,
    delta_messages: u64,
    delta_cpu_ns: u64,
    pools_started: u64,
    totals: replay::Totals,
}

impl Layers {
    fn add_metrics(&mut self, m: &RunMetrics) {
        self.events += m.events_processed;
        self.frames += m.messages.total();
        self.dropped += m.messages.dropped.value();
        self.queue_wait.merge(&m.mac_queue_wait_ms);
        self.deliveries += m.deliveries;
        self.duplicates += m.duplicates;
    }

    fn add_replay(&mut self, r: &replay::Replay) {
        self.zone_build_s += r.zone_build.as_secs_f64();
        self.move_s += r.moves.as_secs_f64();
        self.zone_patch_s += r.patch.as_secs_f64();
        self.init_s += r.init.as_secs_f64();
        self.delta_s += r.delta.as_secs_f64();
        self.delta_calls += r.delta_calls;
        self.delta_messages += r.delta_messages;
        self.delta_cpu_ns += r.delta_cpu_ns;
        self.pools_started += u64::from(r.pool_started);
        self.totals.add(&r.totals);
    }
}

/// Runs one spec under spans and replays its maintenance. Returns the
/// engine's outcome (an `Err` if the spec failed or the replay diverged).
fn traced_spec(
    spec: RunSpec,
    tracer: &mut Tracer,
    parent: SpanId,
    guard: &mut ThreadGuard,
    layers: &mut Layers,
) -> Outcome {
    let RunSpec {
        label,
        config,
        topology,
        plan,
    } = spec;
    let spec_span = tracer.open_labelled("spec", label.clone(), Some(parent));
    let replay_config = config.clone();
    let replay_topology = topology.clone();

    let span = tracer.open("core.new", Some(spec_span));
    let built = contained(|| Simulation::new(config, topology, plan));
    layers.new_s += tracer.close(span).as_secs_f64();
    layers.rss_setup_mb = layers.rss_setup_mb.max(host::status_mib("VmRSS"));
    guard.sample();

    let span = tracer.open("core.run", Some(spec_span));
    let outcome = built.and_then(|s| contained(|| Ok(s.run())));
    layers.run_s += tracer.close(span).as_secs_f64();

    let checked = outcome.and_then(|metrics| {
        layers.add_metrics(&metrics);
        let span = tracer.open("replay", Some(spec_span));
        let replayed = contained(|| {
            replay::replay(
                &replay_config,
                replay_topology,
                metrics.mobility_epochs,
                tracer,
                span,
                guard,
            )
        });
        tracer.close(span);
        let replayed = replayed?;
        layers.add_replay(&replayed);
        replay::check(&label, &replayed.totals, &metrics.routing)?;
        Ok(metrics)
    });
    tracer.close(spec_span);
    checked
}

/// The traced run: one untraced reference pass, then one pass with every
/// layer call under a span and the maintenance replayed and checked.
pub fn traced(workload: Workload, seed: u64) -> Report {
    let mut guard = ThreadGuard::new();
    let mut clock = Clock::start(workload.threads(), &mut guard);
    let reference = untraced_pass(workload, seed, &mut guard, &mut clock);

    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let root = tracer.open("pass", None);
    let span = tracer.open("workloads.gen", Some(root));
    let specs = workload.specs(seed);
    let gen_s = tracer.close(span).as_secs_f64();
    let mut outcomes = Vec::with_capacity(specs.len());
    for spec in specs {
        let label = spec.label.clone();
        let outcome = traced_spec(spec, &mut tracer, root, &mut guard, &mut layers);
        outcomes.push((label, outcome));
    }
    tracer.close(root);

    let mut report = Report::default();
    report.failed = check_outcomes(
        workload,
        seed,
        &[reference.outcomes.as_slice(), outcomes.as_slice()],
        &mut report.notes,
    );
    report.attempted = (reference.outcomes.len() + outcomes.len()) as u64;
    report.notes.push(write_spans(workload, seed, &tracer));

    let l = &layers;
    let maintenance_s = l.move_s + l.zone_patch_s + l.delta_s;
    let dataplane_s = l.run_s - maintenance_s;
    let per = |num: f64, den: u64| num / den.max(1) as f64;
    let v = &mut report.values;
    v.insert("workloads.gen_s", gen_s);
    v.insert("core.new_s", l.new_s);
    v.insert("core.run_s", l.run_s);
    v.insert("core.dataplane_s", dataplane_s);
    v.insert("core.ns_per_event", per(dataplane_s * 1e9, l.events));
    v.insert("core.rss_setup_mb", l.rss_setup_mb);
    v.insert(
        "core.duplicates_per_delivery",
        per(l.duplicates as f64, l.deliveries),
    );
    v.insert("kernel.events", l.events as f64);
    v.insert("mac.frames", l.frames as f64);
    v.insert("mac.dropped", l.dropped as f64);
    v.insert("mac.queue_wait_ms", l.queue_wait.mean());
    v.insert("net.zone_build_s", l.zone_build_s);
    v.insert("net.move_s", l.move_s);
    v.insert("net.zone_patch_s", l.zone_patch_s);
    v.insert("net.zone_patches", l.totals.zone_patches as f64);
    v.insert("net.zone_rows_patched", l.totals.zone_rows_patched as f64);
    v.insert(
        "net.ns_per_row",
        per(l.zone_patch_s * 1e9, l.totals.zone_rows_patched),
    );
    v.insert("routing.init_s", l.init_s);
    v.insert("routing.delta_s", l.delta_s);
    v.insert("routing.delta_calls", l.delta_calls as f64);
    v.insert(
        "routing.ns_per_message",
        per(l.delta_s * 1e9, l.delta_messages),
    );
    v.insert("routing.rounds", l.totals.rounds as f64);
    v.insert("routing.messages", l.totals.messages as f64);
    v.insert("routing.bytes", l.totals.bytes as f64);
    v.insert(
        "routing.delta_cpu_util",
        if l.delta_s > 0.0 {
            l.delta_cpu_ns as f64 / 1e9 / l.delta_s
        } else {
            0.0
        },
    );
    v.insert("routing.pool_started", l.pools_started as f64);
    v.insert("trace.overhead_s", l.new_s + l.run_s - reference.sim_s);
    v.insert("host.slice_ms", median(clock.slices()) * 1e3);
    v.insert("host.nproc", host::nproc() as f64);
    v.insert("host.peak_threads", guard.peak() as f64);
    report.notes.push(format!(
        "reference pass: wall {:.3} s, simulation {:.3} s; failed_share {}",
        reference.wall_s,
        reference.sim_s,
        report.failed as f64 / report.attempted as f64
    ));
    finish(report, &guard)
}

/// Writes the traced pass's spans to `.bench_spans/` in the working
/// directory; returns a note saying where (or why not).
fn write_spans(workload: Workload, seed: u64, tracer: &Tracer) -> String {
    let dir = std::path::Path::new(".bench_spans");
    let path = dir.join(format!("{}-seed{seed}.jsonl", workload.name()));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl())) {
        Ok(()) => format!("spans written to {}", path.display()),
        Err(e) => format!("spans not written to {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::{mean, median};

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mean_of_passes() {
        assert_eq!(mean(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[10.0, 14.0]), 12.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
