//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [fig3|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|ext1|ext2|ext3|ext4|ext5|ext6|table1|breakeven|all]...
//!       [--scale smoke|quick|paper] [--seed N] [--seeds R] [--out DIR] [--workers W]
//!       [--event-kernel heap|wheel|wheel-batched]
//!       [--adversary-fraction F] [--adversary-behavior B] [--attack-start MS]
//!       [--attack-factor K] [--churn-rate F] [--contact-plan FILE]
//! ```
//!
//! A target that is neither one of these IDs nor `all` is an error (exit
//! code 2), as is an unknown flag. Markdown goes to stdout; CSVs and their
//! machine-readable JSON twins are written under `--out` (default
//! `results/`). With `--seeds R` (R > 1)
//! every simulation figure is replicated over R seeds and reported as
//! mean ± 95% CI (analytical figures are seed-free and unaffected);
//! replicated output is the `{id}_ci.csv` aggregate only — no JSON twin,
//! so `xtask sweep-diff` applies to single-seed sweeps.
//! `--workers W` sizes the sweep executor's worker pool (`0` = the host's
//! available parallelism, the default) — a wall-clock knob only: every
//! output byte is identical for every value, which CI verifies by diffing
//! the JSON of a workers-1 run against a workers-auto run.
//! `--event-kernel` selects the discrete-event kernel every simulation
//! runs on (binary heap, timer wheel, or timer wheel with batched
//! same-timestamp dispatch) — likewise wall-clock only: RunMetrics are
//! byte-identical across kernels, so CI diffs a heap run against a wheel
//! run the same way.
//!
//! `--adversary-fraction`, `--adversary-behavior` (honest, flooding,
//! silent-dropper, metadata-liar), `--attack-start` (ms),
//! `--attack-factor`, and `--churn-rate` inject adversarial behavior and
//! mass join/leave churn into every figure whose specs did not pin their
//! own (EXT5 pins its own sweep and is immune). Unlike the two knobs
//! above these are **semantic** — they change results exactly like a seed
//! does — but under any fixed setting the wall-clock knobs still cannot
//! change a byte, which is what the adversarial-smoke CI step verifies.
//! `--contact-plan FILE` loads a `.cp`-style scheduled-connectivity plan
//! (`node_a node_b t_start t_end` per line, seconds) and overlays it on
//! every figure whose specs did not pin their own — the fourth semantic
//! knob. EXT6 pins its own duty-cycle sweep and is immune.
//! Run with `--release`; the paper scale sweeps take minutes.

use std::collections::BTreeSet;
use std::path::PathBuf;

use spms::EventKernel;
use spms_kernel::SimTime;
use spms_net::ContactPlan;
use spms_workloads::figures;
use spms_workloads::{
    render_ascii_chart, render_csv, render_json, render_markdown, render_replicated_csv,
    render_replicated_markdown, replicate, set_default_adversary, set_default_contact_plan,
    set_default_event_kernel, set_default_workers, AdversaryOverride, FigureResult, Scale,
};

/// Every target ID `repro` knows, besides `all`.
const TARGETS: [&str; 18] = [
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "ext1",
    "ext2",
    "ext3",
    "ext4",
    "ext5",
    "ext6",
    "table1",
    "breakeven",
];

struct Args {
    targets: BTreeSet<String>,
    scale: Scale,
    scale_name: String,
    seed: u64,
    seeds: usize,
    out: PathBuf,
    workers: usize,
    event_kernel: EventKernel,
    adversary: AdversaryOverride,
    contact_plan: Option<ContactPlan>,
}

fn parse_args() -> Result<Args, String> {
    let mut targets = BTreeSet::new();
    let mut scale_name = "quick".to_string();
    let mut seed = 42u64;
    let mut seeds = 1usize;
    let mut out = PathBuf::from("results");
    let mut workers = 0usize;
    let mut event_kernel = EventKernel::Heap;
    let mut adversary = AdversaryOverride::default();
    let mut contact_plan = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--scale" => {
                scale_name = argv.next().ok_or("--scale needs a value")?;
            }
            "--workers" => {
                workers = argv
                    .next()
                    .ok_or("--workers needs a value")?
                    .parse()
                    .map_err(|e| format!("bad worker count: {e}"))?;
            }
            "--seed" => {
                seed = argv
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--seeds" => {
                seeds = argv
                    .next()
                    .ok_or("--seeds needs a value")?
                    .parse()
                    .map_err(|e| format!("bad replication count: {e}"))?;
                if seeds == 0 {
                    return Err("--seeds must be at least 1".into());
                }
            }
            "--out" => {
                out = PathBuf::from(argv.next().ok_or("--out needs a value")?);
            }
            "--event-kernel" => {
                event_kernel = argv.next().ok_or("--event-kernel needs a value")?.parse()?;
            }
            "--adversary-fraction" => {
                let v: f64 = argv
                    .next()
                    .ok_or("--adversary-fraction needs a value")?
                    .parse()
                    .map_err(|e| format!("bad adversary fraction: {e}"))?;
                adversary.fraction = Some(v);
            }
            "--adversary-behavior" => {
                adversary.behavior = Some(
                    argv.next()
                        .ok_or("--adversary-behavior needs a value")?
                        .parse()?,
                );
            }
            "--attack-start" => {
                let ms: f64 = argv
                    .next()
                    .ok_or("--attack-start needs a value (ms)")?
                    .parse()
                    .map_err(|e| format!("bad attack start: {e}"))?;
                adversary.attack_start = Some(SimTime::from_millis_f64(ms));
            }
            "--attack-factor" => {
                let k: u32 = argv
                    .next()
                    .ok_or("--attack-factor needs a value")?
                    .parse()
                    .map_err(|e| format!("bad attack factor: {e}"))?;
                adversary.attack_factor = Some(k);
            }
            "--contact-plan" => {
                let path = PathBuf::from(argv.next().ok_or("--contact-plan needs a file")?);
                contact_plan = Some(ContactPlan::load(&path)?);
            }
            "--churn-rate" => {
                let v: f64 = argv
                    .next()
                    .ok_or("--churn-rate needs a value")?
                    .parse()
                    .map_err(|e| format!("bad churn rate: {e}"))?;
                adversary.churn_rate = Some(v);
            }
            "--help" | "-h" => {
                return Err("usage: repro [FIGURES|all] [--scale smoke|quick|paper] \
                            [--seed N] [--seeds R] [--out DIR] [--workers W] \
                            [--event-kernel heap|wheel|wheel-batched] \
                            [--adversary-fraction F] \
                            [--adversary-behavior honest|flooding|silent-dropper|metadata-liar] \
                            [--attack-start MS] [--attack-factor K] [--churn-rate F] \
                            [--contact-plan FILE]"
                    .into())
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}"));
            }
            other if other == "all" || TARGETS.contains(&other) => {
                targets.insert(other.to_string());
            }
            other => {
                return Err(format!(
                    "unknown target {other} (valid targets: {} all)",
                    TARGETS.join(" ")
                ));
            }
        }
    }
    if targets.is_empty() {
        targets.insert("all".to_string());
    }
    let scale = match scale_name.as_str() {
        "smoke" => Scale::smoke(),
        "quick" => Scale::quick(),
        "paper" => Scale::paper(),
        other => return Err(format!("unknown scale {other}")),
    };
    Ok(Args {
        targets,
        scale,
        scale_name,
        seed,
        seeds,
        out,
        workers,
        event_kernel,
        adversary,
        contact_plan,
    })
}

fn wants(targets: &BTreeSet<String>, id: &str) -> bool {
    targets.contains("all") || targets.contains(id)
}

fn emit(fig: &FigureResult, out_dir: &PathBuf) {
    print!("{}", render_markdown(fig));
    println!("{}", render_ascii_chart(fig, 48));
    write_file(out_dir, &format!("{}.csv", fig.id), &render_csv(fig));
    // The machine-readable twin CI diffs across sweep worker counts.
    write_file(out_dir, &format!("{}.json", fig.id), &render_json(fig));
}

/// Emits a simulation figure, replicated over `args.seeds` seeds when more
/// than one was requested.
fn emit_sim(args: &Args, generate: impl Fn(u64) -> FigureResult) {
    if args.seeds <= 1 {
        emit(&generate(args.seed), &args.out);
        return;
    }
    let seeds: Vec<u64> = (0..args.seeds as u64).map(|i| args.seed + i).collect();
    match replicate(&seeds, generate) {
        Ok(rep) => {
            print!("{}", render_replicated_markdown(&rep));
            write_file(
                &args.out,
                &format!("{}_ci.csv", rep.id),
                &render_replicated_csv(&rep),
            );
        }
        Err(e) => eprintln!("replication failed: {e}"),
    }
}

fn write_file(out_dir: &PathBuf, name: &str, contents: &str) {
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("warning: cannot create {}: {e}", out_dir.display());
        return;
    }
    let path = out_dir.join(name);
    if let Err(e) = std::fs::write(&path, contents) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    // Route every figure sweep through a pool of the requested size
    // (0 = auto) and onto the requested event kernel. Both are purely
    // wall-clock: outputs are byte-identical for every combination.
    set_default_workers(args.workers);
    set_default_event_kernel(args.event_kernel);
    // The semantic overrides (adversary/churn and the contact plan) —
    // only figures that leave those config slots unset pick them up.
    set_default_adversary(args.adversary);
    set_default_contact_plan(args.contact_plan.clone());
    let t = &args.targets;
    eprintln!(
        "repro: scale={} seed={} workers={} event-kernel={} targets={:?}",
        args.scale_name,
        args.seed,
        if args.workers == 0 {
            "auto".to_string()
        } else {
            args.workers.to_string()
        },
        args.event_kernel,
        t
    );
    if let Some(plan) = &args.contact_plan {
        eprintln!(
            "repro: contact-plan override: {} link(s), {} window(s) (semantic knob: \
             outputs differ by design)",
            plan.num_links(),
            plan.num_windows(),
        );
    }
    if args.adversary != AdversaryOverride::default() {
        eprintln!(
            "repro: adversary override: fraction={:?} behavior={:?} attack-start={:?} \
             attack-factor={:?} churn-rate={:?} (semantic knob: outputs differ by design)",
            args.adversary.fraction,
            args.adversary.behavior,
            args.adversary.attack_start,
            args.adversary.attack_factor,
            args.adversary.churn_rate,
        );
    }

    if wants(t, "table1") {
        println!("{}", figures::table1());
    }
    if wants(t, "fig3") {
        emit(&figures::fig3(&args.scale), &args.out);
    }
    if wants(t, "fig5") {
        emit(&figures::fig5(&args.scale), &args.out);
    }
    // Paired generators share one sweep per call; under replication each
    // member re-runs the sweep, trading CPU for generator reuse.
    if wants(t, "fig6") || wants(t, "fig8") {
        if args.seeds <= 1 {
            let (f6, f8) = figures::fig6_fig8(&args.scale, args.seed);
            if wants(t, "fig6") {
                emit(&f6, &args.out);
            }
            if wants(t, "fig8") {
                emit(&f8, &args.out);
            }
        } else {
            if wants(t, "fig6") {
                emit_sim(&args, |s| figures::fig6_fig8(&args.scale, s).0);
            }
            if wants(t, "fig8") {
                emit_sim(&args, |s| figures::fig6_fig8(&args.scale, s).1);
            }
        }
    }
    if wants(t, "fig7") || wants(t, "fig9") {
        if args.seeds <= 1 {
            let (f7, f9) = figures::fig7_fig9(&args.scale, args.seed);
            if wants(t, "fig7") {
                emit(&f7, &args.out);
            }
            if wants(t, "fig9") {
                emit(&f9, &args.out);
            }
        } else {
            if wants(t, "fig7") {
                emit_sim(&args, |s| figures::fig7_fig9(&args.scale, s).0);
            }
            if wants(t, "fig9") {
                emit_sim(&args, |s| figures::fig7_fig9(&args.scale, s).1);
            }
        }
    }
    if wants(t, "fig10") {
        emit_sim(&args, |s| figures::fig10(&args.scale, s));
    }
    if wants(t, "fig11") {
        emit_sim(&args, |s| figures::fig11(&args.scale, s));
    }
    if wants(t, "fig12") {
        emit_sim(&args, |s| figures::fig12(&args.scale, s));
    }
    if wants(t, "fig13") {
        emit_sim(&args, |s| figures::fig13(&args.scale, s));
    }
    if wants(t, "ext1") {
        if args.seeds <= 1 {
            let (a, b) = figures::ext1(&args.scale, args.seed);
            emit(&a, &args.out);
            emit(&b, &args.out);
        } else {
            emit_sim(&args, |s| figures::ext1(&args.scale, s).0);
            emit_sim(&args, |s| figures::ext1(&args.scale, s).1);
        }
    }
    if wants(t, "ext2") {
        emit_sim(&args, |s| figures::ext2(&args.scale, s));
    }
    if wants(t, "ext3") {
        emit_sim(&args, |s| figures::ext3(&args.scale, s));
    }
    if wants(t, "ext4") {
        emit_sim(&args, |s| figures::ext4(&args.scale, s));
    }
    if wants(t, "ext5") {
        emit_sim(&args, |s| figures::ext5(&args.scale, s));
    }
    if wants(t, "ext6") {
        if args.seeds <= 1 {
            let (a, b) = figures::ext6(&args.scale, args.seed);
            emit(&a, &args.out);
            emit(&b, &args.out);
        } else {
            emit_sim(&args, |s| figures::ext6(&args.scale, s).0);
            emit_sim(&args, |s| figures::ext6(&args.scale, s).1);
        }
    }
    if wants(t, "breakeven") {
        println!("{}", figures::breakeven_report());
    }
}
