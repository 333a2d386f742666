//! End-to-end benchmark of the SPMS simulator.
//!
//! ```text
//! e2ebench --workload <fig12-paper|mobility-10k|flows-dense> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload's specs in passes and reports the
//! end-to-end metrics; with `--trace 1` it runs one reference pass and one
//! traced pass and reports the per-layer metrics. Human-readable lines
//! start with `#`; the last line of stdout is the JSON result. See
//! `README.md` for the workloads, the metrics and how to read them.

mod calib;
mod check;
mod host;
mod measure;
mod replay;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use measure::Report;
use workloads::Workload;

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
const PER_LAYER: [(&str, &str); 30] = [
    ("workloads.gen_s", "s"),
    ("core.new_s", "s"),
    ("core.run_s", "s"),
    ("core.dataplane_s", "s"),
    ("core.ns_per_event", "ns/event"),
    ("core.rss_setup_mb", "MiB"),
    ("core.duplicates_per_delivery", "ratio"),
    ("kernel.events", "count"),
    ("mac.frames", "count"),
    ("mac.dropped", "count"),
    ("mac.queue_wait_ms", "sim_ms"),
    ("net.zone_build_s", "s"),
    ("net.move_s", "s"),
    ("net.zone_patch_s", "s"),
    ("net.zone_patches", "count"),
    ("net.zone_rows_patched", "count"),
    ("net.ns_per_row", "ns/row"),
    ("routing.init_s", "s"),
    ("routing.delta_s", "s"),
    ("routing.delta_calls", "count"),
    ("routing.ns_per_message", "ns/msg"),
    ("routing.rounds", "count"),
    ("routing.messages", "count"),
    ("routing.bytes", "bytes"),
    ("routing.delta_cpu_util", "ratio"),
    ("routing.pool_started", "count"),
    ("trace.overhead_s", "s"),
    ("host.slice_ms", "ms"),
    ("host.nproc", "count"),
    ("host.peak_threads", "count"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(40.0),
        trace: trace.unwrap_or(false),
    })
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `table` with its unit.
fn result_json(report: &Report, table: &[(&str, &str)]) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = report
            .values
            .get(name)
            .copied()
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct, report.attempted, report.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        measure::traced(args.workload, args.seed)
    } else {
        measure::untraced(args.workload, args.seed, args.seconds)
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "# e2ebench {} seed={} trace={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for (name, unit) in table {
        println!("# {name} = {} {unit}", report.values[name]);
    }
    println!("{}", result_json(&report, table));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_contract_flags() {
        let a = args("--workload flows-dense --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::FlowsDense);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--workload flows-dense --trace 2").is_err());
        assert!(args("--workload flows-dense --seconds 0").is_err());
        assert!(args("--seed 1").is_err());
    }

    /// Every metric the benchmark prints is declared in `BENCHMARK.json`
    /// with the same unit, and every declared metric is printed.
    #[test]
    fn printed_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let end = json[start..].find(']').expect("section closes") + start;
            json[start..end]
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect("key present");
                        let rest = &entry[at + key.len() + 2..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = rest[open..].find('"').expect("value closes") + open;
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
        for w in Workload::ALL {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", w.name())),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut report = Report {
            correct: true,
            attempted: 3,
            ..Report::default()
        };
        for (name, _) in END_TO_END {
            report.values.insert(name, 1.5);
        }
        let line = result_json(&report, &END_TO_END);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    }
}
