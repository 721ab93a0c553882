//! The eba benchmark: one command that runs a named workload through the
//! workspace crates' public APIs, checks its outputs against an
//! independent path, and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the last line of standard output is the end-to-end
//! summary; with `--trace 1` it is the per-layer summary, and the spans
//! are written to `.bench_out/`. The line before it is the full result
//! record with machine metadata, which `perfbench/compare.py` reads.
//! `perfbench/METRICS.md` defines every metric.

mod check;
mod estimate;
mod fuzz;
mod harness;
mod json;
mod service;
mod stats;
mod trace;

use std::process::ExitCode;

use eba_core::prelude::EbaError;

use harness::{command_output, peak_rss_mib, Metric, Outcome, RunConfig};
use json::Json;
use trace::Tracer;

/// The seed runs use unless told otherwise.
const DEFAULT_SEED: u64 = 3770;
/// The seed kept back for confirming a claim on inputs it was not tuned
/// on. It is an ordinary seed; nothing treats it specially.
const CONFIRM_SEED: u64 = 20_231;

type WorkloadFn = fn(&RunConfig, &mut Tracer) -> Result<Outcome, EbaError>;

const WORKLOADS: [(&str, WorkloadFn); 4] = [
    ("check_fip31", check::run),
    ("estimate_n16", estimate::run),
    ("service_mix", service::run),
    ("fuzz_naive", fuzz::run),
];

/// The end-to-end metrics of the summary line, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("rate_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("yield_ratio", "ratio"),
];

/// The per-layer metrics of the traced summary line, in `BENCHMARK.json`
/// order. A workload that does not reach a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 37] = [
    ("sim.enumerate.wall_s", "s"),
    ("sim.enumerate.self_s", "s"),
    ("sim.enumerate.runs", "count"),
    ("sim.store.intern_s", "s"),
    ("sim.store.distinct_states", "count"),
    ("sim.store.distinct_ratio", "ratio"),
    ("epistemic.system.partition_s", "s"),
    ("epistemic.query.spec_s", "s"),
    ("epistemic.query.implements_s", "s"),
    ("epistemic.query.battery_s", "s"),
    ("epistemic.query.plan_nodes", "count"),
    ("epistemic.implements.comparisons", "count"),
    ("stat.estimate_s", "s"),
    ("stat.sample_us", "us"),
    ("stat.step_us", "us"),
    ("stat.judge_us", "us"),
    ("stat.parallel_efficiency", "ratio"),
    ("service.run_s", "s"),
    ("service.admit_us", "us"),
    ("service.engine_us", "us"),
    ("service.route_us", "us"),
    ("service.cpu_s", "s"),
    ("service.runtime_share", "ratio"),
    ("service.deferrals", "count"),
    ("service.peak_in_flight", "count"),
    ("transport.frames_per_session", "count"),
    ("transport.wire_bytes_per_session", "B"),
    ("transport.drop_ratio", "ratio"),
    ("fuzz.oracle_us", "us"),
    ("fuzz.oracle_calls", "count"),
    ("fuzz.shrink_calls", "count"),
    ("fuzz.search_self_s", "s"),
    ("fuzz.confirm_ms", "ms"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

struct Args {
    workload: String,
    config: RunConfig,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: eba-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n\
         (default seed {DEFAULT_SEED}; seed {CONFIRM_SEED} is kept for confirming claims)",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| format!("--seed {v}: not a u64"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds {v}: want a number in (0, 600]"))?;
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: want 0 or 1")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(n, _)| *n == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        config: RunConfig {
            seed,
            seconds,
            traced,
        },
    })
}

fn machine() -> Json {
    let unknown = || "unknown".to_string();
    let revision = command_output("git", &["rev-parse", "HEAD"]);
    let dirty = revision.as_ref().and_then(|_| {
        command_output("git", &["status", "--porcelain", "--untracked-files=no"])
            .map(|s| !s.is_empty())
    });
    Json::obj([
        (
            "nproc",
            Json::Str(command_output("nproc", &[]).unwrap_or_else(unknown)),
        ),
        (
            "available_parallelism",
            Json::Int(std::thread::available_parallelism().map_or(0, |p| p.get() as u64)),
        ),
        (
            "rustc",
            Json::Str(command_output("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        ("git_revision", Json::Str(revision.unwrap_or_else(unknown))),
        (
            "git_dirty",
            dirty.map_or_else(|| Json::str("unknown"), Json::Bool),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ])
}

fn metrics_obj(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

/// Completes the per-layer list: every name of [`PER_LAYER`] in order,
/// 0 where the workload does not reach the layer.
fn per_layer(outcome: &Outcome) -> Vec<Metric> {
    let untraced = stats::median(&outcome.untraced_walls);
    let traced = stats::median(&outcome.traced_walls);
    let overhead = [
        harness::metric("trace.untraced_wall_s", untraced, "s"),
        harness::metric("trace.traced_wall_s", traced, "s"),
        harness::metric("trace.overhead_s", traced - untraced, "s"),
        harness::metric(
            "trace.overhead_ratio",
            if untraced > 0.0 {
                traced / untraced - 1.0
            } else {
                0.0
            },
            "ratio",
        ),
    ];
    let reported: Vec<&Metric> = outcome.layers.iter().chain(&overhead).collect();
    for m in &reported {
        assert!(
            PER_LAYER.iter().any(|(name, _)| *name == m.name),
            "per-layer metric {} is not registered",
            m.name
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = reported
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            harness::metric(name, value, unit)
        })
        .collect()
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("eba-perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let config = &args.config;
    let started_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64());
    let run = WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .expect("workload validated")
        .1;
    let mut tracer = Tracer::new();
    let mut outcome = match run(config, &mut tracer) {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "eba-perfbench: {} failed: {}",
                args.workload,
                eba_core::context::error_message(&e)
            );
            return ExitCode::from(1);
        }
    };
    let peak_rss = peak_rss_mib();
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;

    let h = &outcome.headline;
    let end_to_end: Vec<Metric> = END_TO_END
        .iter()
        .zip([
            outcome.setup_s,
            peak_rss,
            h.rate_per_s,
            h.p50_ms,
            h.tail_ms,
            h.yield_ratio,
        ])
        .map(|(&(name, unit), value)| harness::metric(name, value, unit))
        .collect();
    let mut named = vec![
        harness::metric("setup_s", outcome.setup_s, "s"),
        harness::metric("peak_rss_mib", peak_rss, "MiB"),
        harness::metric("error_rate", error_rate, "ratio"),
    ];
    named.append(&mut outcome.named);
    let layers = if config.traced {
        per_layer(&outcome)
    } else {
        Vec::new()
    };

    println!(
        "eba-perfbench {} seed={} seconds={} trace={} passes={}+{}",
        args.workload,
        config.seed,
        config.seconds,
        u8::from(config.traced),
        outcome.untraced_walls.len(),
        outcome.traced_walls.len()
    );
    print_table("workload metrics:", &named);
    print_table("end-to-end summary:", &end_to_end);
    if config.traced {
        print_table("per-layer (traced passes and replays):", &layers);
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, config.seed));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl())) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("eba-perfbench: writing {}: {e}", path.display()),
        }
    }
    println!(
        "checks: {} of {} operations failed",
        outcome.failed, outcome.attempted
    );
    for p in &outcome.problems {
        println!("  FAILED: {p}");
    }

    let record = Json::obj([
        ("schema", Json::str("eba-perfbench-v1")),
        ("workload", Json::str(&args.workload)),
        ("seed", Json::Int(config.seed)),
        ("seconds", Json::Num(config.seconds)),
        ("trace", Json::Int(u64::from(config.traced))),
        ("started_unix", Json::Num(started_unix)),
        ("machine", machine()),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(outcome.attempted)),
        ("failed", Json::Int(outcome.failed)),
        (
            "problems",
            Json::Arr(outcome.problems.iter().map(Json::str).collect()),
        ),
        (
            "untraced_pass_walls_s",
            Json::Arr(
                outcome
                    .untraced_walls
                    .iter()
                    .map(|&w| Json::Num(w))
                    .collect(),
            ),
        ),
        (
            "traced_pass_walls_s",
            Json::Arr(outcome.traced_walls.iter().map(|&w| Json::Num(w)).collect()),
        ),
        ("metrics", metrics_obj(&named)),
        ("end_to_end", metrics_obj(&end_to_end)),
        ("per_layer", metrics_obj(&layers)),
    ]);
    println!("{}", record.render());
    let summary = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(outcome.attempted)),
        ("failed", Json::Int(outcome.failed)),
        (
            "metrics",
            metrics_obj(if config.traced { &layers } else { &end_to_end }),
        ),
    ]);
    println!("{}", summary.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload fuzz_naive --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, "fuzz_naive");
        assert_eq!(a.config.seed, 7);
        assert_eq!(a.config.seconds, 3.0);
        assert!(a.config.traced);
        let d = args("--workload check_fip31").unwrap();
        assert_eq!(d.config.seed, DEFAULT_SEED);
        assert!(!d.config.traced);
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "",
            "--workload nope",
            "--workload check_fip31 --trace 2",
            "--workload check_fip31 --seconds 0",
            "--workload check_fip31 --seed x",
            "--workload check_fip31 --trails 10",
            "--workload",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
