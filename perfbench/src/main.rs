//! The repository benchmark: one workload per process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-paper|serve-burst|deal-stream> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end metrics of `BENCHMARK.json`;
//! with `--trace 1` the workload runs twice, untraced in a child process
//! and then traced in this one, and the metrics are the per-layer ones, including the tracing overhead (traced
//! minus untraced) of every end-to-end metric. The traced run's spans are
//! written to `.bench_build/perfbench/`. See `perfbench/README.md` for
//! what each metric means on each workload.

mod deal_stream;
mod host;
mod layers;
mod procfs;
mod sched;
mod serve_burst;
mod stats;
mod trace;
mod train_paper;

use host::HostSpeed;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// The end-to-end metrics every workload reports: `(name, unit, better)`.
/// Each workload defines them on its own path (see README.md).
pub const END_TO_END: [(&str, &str, &str); 9] = [
    ("setup_s", "s", "lower"),
    ("op_p50_s", "s", "lower"),
    ("op_p95_s", "s", "lower"),
    ("lag_p50_s", "s", "lower"),
    ("lag_p90_s", "s", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("recall_at_10", "ratio", "higher"),
    ("ndcg_at_10", "ratio", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// The per-layer metrics of the traced run: `(name, unit)`. A layer the
/// workload does not call reads 0. `trace_overhead.<metric>` entries for
/// every end-to-end metric follow these.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("data.generate_s", "s"),
    ("data.leave_one_out_s", "s"),
    ("graph.build_hetero_s", "s"),
    ("core.model_new_s", "s"),
    ("data.loss_batch_build_s", "s"),
    ("data.batches", "count"),
    ("core.propagate_fwd_s", "s"),
    ("autograd.backward_s", "s"),
    ("autograd.sgd_step_s", "s"),
    ("autograd.adam_step_s", "s"),
    ("train.pretrain_epoch_s", "s"),
    ("train.finetune_epoch_s", "s"),
    ("train.shard_residual_s", "s"),
    ("core.propagate_per_batch", "ratio"),
    ("eval.evaluate_s", "s"),
    ("eval.score_items_s", "s"),
    ("models.export_snapshot_s", "s"),
    ("tensor.blend_dot_block_s", "s"),
    ("models.score_block_multi_s", "s"),
    ("tensor.bytes_per_pass", "bytes"),
    ("serve.engine.recommend_many_s.g1", "s"),
    ("serve.engine.recommend_many_s.g8", "s"),
    ("serve.engine.recommend_many_s.g64", "s"),
    ("serve.topk_s", "s"),
    ("serve.service.mean_group", "count"),
    ("serve.service.largest_group", "count"),
    ("serve.service.enqueue_to_reply_p95_s", "s"),
    ("data.events_append_s", "s"),
    ("data.blocked_items_at_s.first", "s"),
    ("data.blocked_items_at_s.last", "s"),
    ("data.event_log_len", "count"),
    ("models.delta_build_s", "s"),
    ("serve.router.publish_delta_s", "s"),
    ("serve.router.set_deal_filter_s", "s"),
    ("serve.first_query_s", "s"),
    ("serve.router.shard_mean_s", "s"),
    ("serve.router.merge_mean_s", "s"),
    ("serve.cache.hit_ratio", "ratio"),
    ("bench.generator_late_p95_s", "s"),
    ("bench.writer_late_p95_s", "s"),
    ("proc.user_s", "s"),
    ("proc.sys_s", "s"),
    ("proc.minor_faults", "count"),
    ("host.cores", "count"),
    ("host.reference_s", "s"),
];

/// A metric under the name the workload's own path gives it, for the
/// human-readable part of the report.
pub struct Named {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub value: f64,
}

/// What one pass of a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics by the names in [`END_TO_END`].
    pub e2e: BTreeMap<&'static str, f64>,
    /// The same measurements under their path-specific names.
    pub named: Vec<Named>,
    /// Per-layer metrics (filled only when the tracer is on).
    pub layer: BTreeMap<&'static str, f64>,
    /// Correctness checks, by name.
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
    /// The threads the pass ran on, by role.
    pub threads: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn named(&mut self, name: &'static str, unit: &'static str, better: &'static str, v: f64) {
        self.named.push(Named {
            name,
            unit,
            better,
            value: v,
        });
    }
}

/// Parameters of one run.
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    /// Where the run may write scratch files (inside the checkout).
    pub scratch: PathBuf,
}

/// Sleeps until `due` (then spins out the last stretch, so an open-loop
/// sender is not made late by the sleep's own overshoot) and returns the
/// instant it actually woke.
pub fn wait_until(due: Instant) -> Instant {
    const SPIN: Duration = Duration::from_micros(300);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    loop {
        let now = Instant::now();
        if now >= due {
            return now;
        }
        std::hint::spin_loop();
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <train-paper|serve-burst|deal-stream> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut opts: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => &flag[2..],
            other => return Err(format!("unknown argument `{other}`")),
        };
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        opts.insert(key, value);
    }
    let get = |k: &str| opts.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.to_string();
    if !["train-paper", "serve-burst", "deal-stream"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs one pass of the workload. Its end-to-end times and rates are
/// then converted into reference-host seconds (see host.rs); the
/// human-readable lines keep the wall-clock figures.
fn run_pass(args: &Args, cfg: &RunCfg, tracer: &Tracer) -> Outcome {
    let mut host = HostSpeed::new();
    let mut out = match args.workload.as_str() {
        "train-paper" => train_paper::run(cfg, tracer, &mut host),
        "serve-burst" => serve_burst::run(cfg, tracer, &mut host),
        // Never samples the reference, so its scale is 1.
        _ => deal_stream::run(cfg, tracer),
    };
    let scale = host.scale();
    for (name, unit, _) in END_TO_END {
        let v = out
            .e2e
            .get_mut(name)
            .unwrap_or_else(|| panic!("workload did not report {name}"));
        *v = host::to_reference(*v, unit, scale);
    }
    out.named("host_scale", "ratio", "info", scale);
    out.layer
        .insert("host.reference_s", host.median_s().unwrap_or(0.0));
    out
}

/// What the untraced pass of a `--trace 1` run reported.
struct Untraced {
    correct: bool,
    attempted: u64,
    failed: u64,
    e2e: BTreeMap<&'static str, f64>,
}

/// Runs the untraced pass of a `--trace 1` run in a child process (this
/// program with `--trace 0`), waits for it, and forwards its report. In a
/// process of its own the traced pass starts as cold, and from as little
/// resident memory, as the untraced one did, so their difference is the
/// cost of tracing and not the cost of running second.
fn untraced_in_child(args: &Args) -> Result<Untraced, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("untraced pass: {e}"))?;
    if !out.status.success() {
        return Err(format!("untraced pass exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let (report, last) = text.trim_end().rsplit_once('\n').unwrap_or(("", &text));
    // The first line is the child's banner; the parent printed its own.
    for line in report.lines().skip(1) {
        println!("{line}");
    }
    let after = |pattern: String| -> Option<&str> {
        let rest = &last[last.find(&pattern)? + pattern.len()..];
        Some(rest[..rest.find([',', '}'])?].trim())
    };
    let read = || -> Option<Untraced> {
        let mut e2e = BTreeMap::new();
        for (name, _, _) in END_TO_END {
            let v = after(format!("\"{name}\": {{\"value\": "))?;
            e2e.insert(name, v.parse().ok()?);
        }
        Some(Untraced {
            correct: after("\"correct\": ".into())? == "true",
            attempted: after("\"attempted\": ".into())?.parse().ok()?,
            failed: after("\"failed\": ".into())?.parse().ok()?,
            e2e,
        })
    };
    read().ok_or_else(|| format!("untraced pass: cannot read its result `{last}`"))
}

/// Renders `v` as a JSON number with every digit Rust keeps for it. JSON
/// has no infinity: a latency percentile that landed on a failed
/// request (`+∞`) is written as the largest finite double.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else if v > 0.0 {
        format!("{:?}", f64::MAX)
    } else {
        format!("{:?}", -f64::MAX)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        scratch: Path::new(".bench_build").join("perfbench"),
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_cores={cores}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut checks: Vec<(String, bool)>;
    let (mut attempted, mut failed): (u64, u64);
    let mut metrics: Vec<(String, &str, f64)> = Vec::new();
    let report = |o: &Outcome, label: &str| {
        println!("{label} threads: {}", o.threads.join(", "));
        for n in &o.named {
            let better = match n.better {
                "lower" | "higher" => format!("({} is better)", n.better),
                _ => String::new(),
            };
            println!("  {:<34} {:>16.6e} {:<6} {better}", n.name, n.value, n.unit);
        }
        let failed_frac = o.failed as f64 / o.attempted.max(1) as f64;
        println!(
            "  {:<34} {failed_frac:>16.6e} ratio  (lower is better)",
            "failed_frac"
        );
    };
    if !args.trace {
        let base = run_pass(&args, &cfg, &Tracer::new(false));
        report(&base, "untraced");
        checks = base.checks;
        attempted = base.attempted;
        failed = base.failed;
        for (name, unit, _) in END_TO_END {
            metrics.push((name.to_string(), unit, base.e2e[name]));
        }
    } else {
        let base = untraced_in_child(&args).unwrap_or_else(|e| {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        });
        checks = vec![("untraced pass: every check".to_string(), base.correct)];
        attempted = base.attempted;
        failed = base.failed;
        let tracer = Tracer::new(true);
        let cpu0 = procfs::cpu_stat();
        let traced = run_pass(&args, &cfg, &tracer);
        let cpu = procfs::cpu_stat().since(&cpu0);
        report(&traced, "traced");
        checks.extend(
            traced
                .checks
                .iter()
                .map(|(n, ok)| (format!("traced: {n}"), *ok)),
        );
        attempted += traced.attempted;
        failed += traced.failed;
        let mut layer = traced.layer.clone();
        layer.insert("proc.user_s", cpu.user_s);
        layer.insert("proc.sys_s", cpu.sys_s);
        layer.insert("proc.minor_faults", cpu.minor_faults as f64);
        layer.insert("host.cores", cores as f64);
        for (name, unit) in PER_LAYER {
            metrics.push((
                name.to_string(),
                unit,
                layer.get(name).copied().unwrap_or(0.0),
            ));
        }
        for (name, unit, _) in END_TO_END {
            let overhead = traced.e2e[name] - base.e2e[name];
            metrics.push((format!("trace_overhead.{name}"), unit, overhead));
        }
        let header = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"host_cores\": {cores}, \
\"threads\": [{}]}}",
            args.workload,
            args.seed,
            args.seconds,
            traced
                .threads
                .iter()
                .map(|t| format!("\"{t}\""))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let path = cfg
            .scratch
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match tracer.write_json(&path, &header) {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                checks.push(("trace file written".into(), false));
            }
        }
    }
    checks.push((
        format!("no operation failed ({failed} of {attempted})"),
        failed == 0,
    ));
    for (name, ok) in &checks {
        println!("check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    let correct = checks.iter().all(|(_, ok)| *ok);
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // the benchmark directory on its own
        };
        let declared = |name: &str| text.contains(&format!("\"name\": \"{name}\""));
        for (name, _, _) in END_TO_END {
            assert!(declared(name), "{name} missing from BENCHMARK.json");
        }
        for (name, _) in PER_LAYER {
            assert!(declared(name), "{name} missing from BENCHMARK.json");
        }
        for (name, _, _) in END_TO_END {
            assert!(declared(&format!("trace_overhead.{name}")));
        }
        let n_names = text.matches("\"name\": ").count();
        assert_eq!(n_names, 3 + END_TO_END.len() * 2 + PER_LAYER.len());
    }

    #[test]
    fn json_numbers_keep_every_digit_and_stay_finite() {
        assert_eq!(json_num(0.1234567890123), "0.1234567890123");
        assert_eq!(json_num(1.0), "1.0");
        assert_eq!(json_num(f64::INFINITY), format!("{:?}", f64::MAX));
    }
}
